// Maps Protocol enum values (and stable string names, for CLI/env
// selection) to factories that build one node's MulticastRouter. Adding a
// fourth protocol is a registration call plus a router implementing
// harness::MulticastRouter — no harness surgery.
#ifndef AG_HARNESS_PROTOCOL_REGISTRY_H
#define AG_HARNESS_PROTOCOL_REGISTRY_H

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness/multicast_router.h"
#include "harness/scenario.h"
#include "mac/csma_mac.h"
#include "sim/simulator.h"

namespace ag::harness {

// Everything a protocol factory may draw on when building one node's
// router. `index` is the node index, used for per-node rng streams.
struct RouterContext {
  sim::Simulator& sim;
  mac::CsmaMac& mac;
  net::NodeId id;
  std::size_t index;
  const ScenarioConfig& config;
};

using RouterFactory =
    std::function<std::unique_ptr<MulticastRouter>(const RouterContext&)>;

struct ProtocolEntry {
  Protocol protocol;
  std::string name;     // stable string id ("maodv_gossip", ...)
  bool gossip_capable;  // whether Anonymous Gossip layers on top
  RouterFactory factory;
  // Core protocols form the historical five-way sweep all() returns —
  // the one the headline benches iterate, so their BENCH JSON stays
  // byte-identical as auxiliary protocols (flooding_gossip) register.
  // Non-core entries remain reachable by enum and by name.
  bool core{true};
};

class ProtocolRegistry {
 public:
  // The process-wide registry, pre-populated with the built-in protocols.
  // Reads are safe from worker threads; registration is not (do it at
  // startup, before experiments run).
  [[nodiscard]] static ProtocolRegistry& instance();

  // Registers a protocol; replaces an existing entry for the same enum
  // value (tests use this to shadow built-ins).
  void add(ProtocolEntry entry);

  // Throws std::out_of_range when the enum value was never registered.
  [[nodiscard]] const ProtocolEntry& entry(Protocol p) const;
  // nullptr when the name is unknown.
  [[nodiscard]] const ProtocolEntry* find(std::string_view name) const;
  // Parses a protocol name; throws std::invalid_argument naming the
  // known protocols when it does not resolve.
  [[nodiscard]] Protocol parse(std::string_view name) const;
  // Parses a comma-separated protocol list ("maodv,flooding"). Empty
  // segments are skipped; an empty result or any unknown name throws
  // std::invalid_argument listing the registered names, and a name listed
  // twice throws naming it — the bench CLIs (`--protocols=`) fail fast
  // with that message instead of writing a figure with a repeated series.
  [[nodiscard]] std::vector<Protocol> parse_list(std::string_view names) const;
  [[nodiscard]] const std::string& name_of(Protocol p) const;
  // Core protocols in registration order (non-core entries excluded).
  [[nodiscard]] std::vector<Protocol> all() const;

  // Builds the router for one node running `ctx.config.protocol`.
  [[nodiscard]] std::unique_ptr<MulticastRouter> build(
      const RouterContext& ctx) const;

 private:
  ProtocolRegistry();  // registers the built-ins

  // "maodv, maodv_gossip, ..." — the list both error messages carry.
  [[nodiscard]] std::string known_names() const;

  std::vector<ProtocolEntry> entries_;
};

}  // namespace ag::harness

#endif  // AG_HARNESS_PROTOCOL_REGISTRY_H
