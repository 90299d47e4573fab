// Full description of one simulation run — defaults reproduce the paper's
// environment (section 5.1): 200x200 m, 40 nodes, 1/3 members, random
// waypoint with pause U(0,80) s, 2 Mbps 802.11, 600 s runs, CBR source.
#ifndef AG_HARNESS_SCENARIO_H
#define AG_HARNESS_SCENARIO_H

#include <cstdint>
#include <stdexcept>
#include <string>

#include "app/workload.h"
#include "dtn/params.h"
#include "faults/fault_plan.h"
#include "gossip/params.h"
#include "session/session_params.h"
#include "mac/mac_params.h"
#include "mobility/random_waypoint.h"
#include "phy/phy_params.h"

namespace ag::harness {

enum class Protocol : std::uint8_t {
  maodv,         // bare MAODV (the paper's baseline curves)
  maodv_gossip,  // MAODV + Anonymous Gossip (the paper's contribution)
  flooding,      // blind flooding (related-work comparison, ablations)
  odmrp,         // bare ODMRP mesh (paper section 5.5's next target)
  odmrp_gossip,  // ODMRP + Anonymous Gossip over the mesh
  // Flooding + Anonymous Gossip ("gossip over flood"): the flood router
  // grows just enough adapter surface (heard-neighbor links, reverse-path
  // hints) for gossip walks and replies to ride on it. Registered outside
  // the core set — ProtocolRegistry::all() excludes it, so the headline
  // benches keep their historical five-protocol sweeps byte-identical.
  flooding_gossip,
};

// Members join within [0, kJoinSpread] of the start ("all the nodes
// joined the group at the beginning of the simulation").
inline constexpr sim::Duration kJoinSpread = sim::Duration::seconds(5.0);

struct ScenarioConfig {
  std::uint64_t seed{1};
  Protocol protocol{Protocol::maodv_gossip};

  std::size_t node_count{40};
  double member_fraction{1.0 / 3.0};

  mobility::RandomWaypointConfig waypoint{};  // 200x200 m, pause U(0,80) s
  phy::PhyParams phy{};                       // range set per experiment
  mac::MacParams mac{};
  gossip::GossipParams gossip{};
  app::Workload workload{};
  // Fault & churn injection: scripted events plus the synthesizable spec
  // (churn rate, crash fraction, partition duration). Empty by default —
  // fault hooks are zero-cost when unused.
  faults::FaultConfig faults{};
  // DTN custody tier (store-and-forward over any protocol) and the
  // user-session layer ("users served" accounting). Both off by default:
  // without them the stack built is exactly the pre-custody one.
  dtn::CustodyParams custody{};
  session::SessionParams sessions{};
  // Trust-based detection & isolation (the defensive half of the
  // adversary axis; the offensive half lives on faults.spec/plan). Off by
  // default; with no roles and trust off the stack is the pre-adversary
  // one.
  faults::TrustParams trust{};

  sim::SimTime duration{sim::SimTime::seconds(600.0)};

  // Group size implied by member_fraction, floored at 2 (a source plus at
  // least one receiver). Rejects configurations that used to be clamped
  // silently: fractions outside (0, 1] and groups larger than the network.
  [[nodiscard]] std::size_t member_count() const {
    if (!(member_fraction > 0.0) || member_fraction > 1.0) {
      throw std::invalid_argument(
          "ScenarioConfig: member_fraction must be in (0, 1], got " +
          std::to_string(member_fraction));
    }
    auto k = static_cast<std::size_t>(static_cast<double>(node_count) * member_fraction + 0.5);
    if (k < 2) k = 2;
    if (k > node_count) {
      throw std::invalid_argument(
          "ScenarioConfig: member_count " + std::to_string(k) +
          " exceeds node_count " + std::to_string(node_count) +
          " (node_count must be at least 2)");
    }
    return k;
  }

  // Convenience setters used by benches/examples.
  ScenarioConfig& with_range(double meters) {
    phy.transmission_range_m = meters;
    return *this;
  }
  ScenarioConfig& with_max_speed(double mps) {
    waypoint.max_speed_mps = mps;
    return *this;
  }
  ScenarioConfig& with_nodes(std::size_t n) {
    node_count = n;
    return *this;
  }
  ScenarioConfig& with_protocol(Protocol p) {
    protocol = p;
    gossip.enabled = (p == Protocol::maodv_gossip || p == Protocol::odmrp_gossip ||
                      p == Protocol::flooding_gossip);
    return *this;
  }
  ScenarioConfig& with_seed(std::uint64_t s) {
    seed = s;
    return *this;
  }
  ScenarioConfig& with_custody(std::uint32_t max_messages,
                               std::uint32_t gateway_count = 0) {
    custody.enabled = true;
    custody.max_messages = max_messages;
    custody.gateway_count = gateway_count;
    return *this;
  }
  ScenarioConfig& with_sessions(std::uint32_t per_node, double duty = 1.0) {
    sessions.per_node = per_node;
    sessions.duty = duty;
    return *this;
  }
  ScenarioConfig& with_adversaries(double fraction,
                                   faults::AdversaryMode mode =
                                       faults::AdversaryMode::blackhole) {
    faults.spec.adversary_fraction = fraction;
    faults.spec.adversary_mode = mode;
    return *this;
  }
  ScenarioConfig& with_trust(bool enabled = true) {
    trust.enabled = enabled;
    return *this;
  }
};

}  // namespace ag::harness

#endif  // AG_HARNESS_SCENARIO_H
