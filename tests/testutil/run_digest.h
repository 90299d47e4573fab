// Golden run digests: 64-bit FNV-1a hashes of a stats::RunResult, taken by
// walking the run-record schema (stats/run_schema.h), plus the fixed matrix
// of short scenarios whose digests are committed. Two digests per run:
//   all                 every field, keys included
//   engine_independent  every field except the ones the simulator engines
//                       legitimately change (see engine_dependent)
// The golden test pins both; the engine equivalence suites pin the second
// for runs on the oracle engines (tests/reference/).
#ifndef AG_TESTS_TESTUTIL_RUN_DIGEST_H
#define AG_TESTS_TESTUTIL_RUN_DIGEST_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "faults/fault_plan.h"
#include "harness/scenario.h"
#include "net/ids.h"
#include "stats/run_result.h"
#include "stats/run_schema.h"

namespace ag::testutil {

// Schema keys whose values depend on which engine ran: executed and
// scheduled event counts, the elided/coalesced counters, and two kinds of
// engine bookkeeping. A fused MAC countdown credits the backoff slots of a
// countdown still running at the cutoff only when it would pause or fire,
// while a per-slot countdown has credited them tick by tick. And a per-slot
// countdown turns a packet-pool hit into a miss on some runs (measured on
// two adversary cells) while the number of packets allocated stays the
// same.
[[nodiscard]] inline bool engine_dependent(std::string_view key) {
  return key == "sim_events" || key == "ev_scheduled" || key == "ev_executed" ||
         key == "mac_difs_elided" || key == "phy_rx_elided" ||
         key == "phy_rx_coalesced" || key == "mac_backoff_slots_credited" ||
         key == "pool_hits" || key == "pool_misses";
}

struct RunDigests {
  std::uint64_t all{0};
  std::uint64_t engine_independent{0};
  bool operator==(const RunDigests&) const = default;
};

// Walks every schema field of a run in schema order, handing `sink` each
// field's key and values: arrays value by value, doubles as their bit
// patterns, flags as 0/1.
template <typename Sink>
class FieldWalker {
 public:
  explicit FieldWalker(Sink& sink) : sink_{sink} {}

  void field(std::string_view key, std::uint64_t v) { sink_(key, &v, 1); }
  void field(std::string_view key, std::uint32_t v) { field(key, std::uint64_t{v}); }
  void field(std::string_view key, net::NodeId v) { field(key, std::uint64_t{v.value()}); }
  void field(std::string_view key, double v) {
    field(key, std::bit_cast<std::uint64_t>(v));
  }
  template <std::size_t N>
  void field(std::string_view key, const std::uint64_t (&v)[N]) {
    sink_(key, v, N);
  }
  template <typename T>
  void field(std::string_view key, const T& v, stats::Group, stats::Fold) {
    field(key, v);
  }
  void gate(std::string_view key, bool flag, stats::Groups) {
    field(key, std::uint64_t{flag ? 1u : 0u});
  }
  void ratio(std::string_view key, double v, stats::Group) { field(key, v); }

 private:
  Sink& sink_;
};

// sink(std::string_view key, const std::uint64_t* values, std::size_t n)
template <typename Sink>
void walk_fields(const stats::RunResult& r, Sink sink) {
  FieldWalker<Sink> v{sink};
  stats::visit_header(r, v);
  for (const stats::MemberResult& m : r.members) stats::visit_member(m, v);
  stats::visit_totals(r.totals, v);
  stats::visit_faults(r.faults, v);
}

// 64-bit FNV-1a over keys and values.
class Fnv1a {
 public:
  void add(std::string_view key, const std::uint64_t* v, std::size_t n) {
    for (const char c : key) mix(static_cast<unsigned char>(c));
    for (std::size_t i = 0; i < n; ++i) {
      for (int b = 0; b < 8; ++b) mix((v[i] >> (8 * b)) & 0xffu);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint64_t byte) {
    h_ ^= byte;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_{1469598103934665603ull};
};

[[nodiscard]] inline RunDigests digest_of(const stats::RunResult& r) {
  Fnv1a all;
  Fnv1a independent;
  walk_fields(r, [&](std::string_view key, const std::uint64_t* v, std::size_t n) {
    all.add(key, v, n);
    if (!engine_dependent(key)) independent.add(key, v, n);
  });
  return {all.value(), independent.value()};
}

// ------------------------------------------------------------ the matrix

// Equivalence-suite size: 40 nodes, 40 simulated seconds.
[[nodiscard]] inline harness::ScenarioConfig short_run() {
  harness::ScenarioConfig c;
  c.node_count = 40;
  c.duration = sim::SimTime::seconds(40.0);
  c.workload.start = sim::SimTime::seconds(10.0);
  c.workload.end = sim::SimTime::seconds(30.0);
  return c;
}

// figure_churn's fault background at its --smoke settings: 15% of nodes
// crash with state wipe, a partition cuts the area in half, members churn.
[[nodiscard]] inline harness::ScenarioConfig churn_background() {
  harness::ScenarioConfig c = short_run();
  c.with_range(65.0).with_max_speed(1.0);
  c.faults.spec.crash_fraction = 0.15;
  c.faults.spec.crash_downtime_s = 20.0;
  c.faults.spec.partition_duration_s = 20.0;
  c.faults.spec.churn_downtime_s = 15.0;
  c.faults.spec.churn_per_min = 4.0;
  return c;
}

// figure_dtn's recipe over the churn background: custody with gateways
// and duty-cycled user sessions; budget 0 is the custody-off column.
[[nodiscard]] inline harness::ScenarioConfig dtn_cell(std::uint32_t budget, double duty) {
  harness::ScenarioConfig c = churn_background();
  c.sessions.per_node = 200;
  c.sessions.duty = duty;
  c.sessions.period_s = 20.0;
  c.sessions.wake_ttl_s = 10.0;
  c.sessions.subscribe_spread_s = 15.0;
  c.custody.enabled = budget > 0;
  c.custody.max_messages = budget;
  c.custody.gateway_count = 2;
  return c;
}

// figure_adversary's recipe: sparse range, 20% adversaries of one mode,
// the detector matched to the threat when isolation is on.
[[nodiscard]] inline harness::ScenarioConfig adversary_cell(harness::Protocol p,
                                                            faults::AdversaryMode mode,
                                                            bool isolation) {
  harness::ScenarioConfig c = short_run();
  c.with_range(42.0).with_max_speed(1.0).with_protocol(p);
  c.faults.spec.adversary_fraction = 0.2;
  c.faults.spec.adversary_mode = mode;
  c.trust.enabled = isolation;
  c.trust.watchdog = isolation && mode != faults::AdversaryMode::gossip_poison;
  c.trust.forward_ratio_floor = 0.2;
  c.trust.min_expected = 60.0;
  return c;
}

// One substrate, 25 simulated seconds (the equivalence suites' length).
[[nodiscard]] inline harness::ScenarioConfig protocol_cell(harness::Protocol p) {
  harness::ScenarioConfig c = short_run();
  c.duration = sim::SimTime::seconds(25.0);
  c.workload.end = sim::SimTime::seconds(20.0);
  c.with_protocol(p).with_seed(3);
  return c;
}

struct GoldenCell {
  std::string name;
  harness::ScenarioConfig config;
  RunDigests expected;
};

[[nodiscard]] inline std::vector<GoldenCell> golden_matrix() {
  using harness::Protocol;
  using faults::AdversaryMode;
  return {
      {"default", short_run(), {0xe139926b27184bc3ull, 0x1762d0ca81c62322ull}},
      {"churn", churn_background(), {0x9dec37d3b118e417ull, 0xba2a7f435c8a640cull}},
      {"protocol/maodv", protocol_cell(Protocol::maodv),
       {0x7baf247b6780d8b4ull, 0xe3dd9c80bfd5e663ull}},
      {"protocol/maodv_gossip", protocol_cell(Protocol::maodv_gossip),
       {0x0a4e4c9f7ff028e6ull, 0x3aa34d5fa833c8b6ull}},
      {"protocol/flooding", protocol_cell(Protocol::flooding),
       {0xcc376683e94dea81ull, 0x33c50d8e39547767ull}},
      {"protocol/odmrp", protocol_cell(Protocol::odmrp),
       {0xbe0e462422aeff2full, 0xd32727e7e3f33ff3ull}},
      {"protocol/odmrp_gossip", protocol_cell(Protocol::odmrp_gossip),
       {0xc4dbc04f56504b5eull, 0xfe64209b4cf8033bull}},
      {"protocol/flooding_gossip", protocol_cell(Protocol::flooding_gossip),
       {0x5ea2da9aa59d0795ull, 0x4a6ead2a5bd8b257ull}},
      {"dtn/custody", dtn_cell(64, 0.25), {0x65b5f706b6e6576dull, 0xa60a5220b8ed179full}},
      {"adversary/blackhole",
       adversary_cell(Protocol::flooding_gossip, AdversaryMode::blackhole, true),
       {0x5f4d3de041e81971ull, 0x5a2c2e268984b811ull}},
      {"adversary/selective_forward",
       adversary_cell(Protocol::flooding_gossip, AdversaryMode::selective_forward, true),
       {0xa87416455a0fe0f0ull, 0xa73c0477a1b4a8c5ull}},
      {"adversary/gossip_poison",
       adversary_cell(Protocol::flooding_gossip, AdversaryMode::gossip_poison, true),
       {0x40bc3d0cad41dea3ull, 0xefddf170aef0ee1dull}},
  };
}

// The committed digests of the cell named `name`.
[[nodiscard]] inline RunDigests golden_digests(std::string_view name) {
  for (const GoldenCell& cell : golden_matrix()) {
    if (cell.name == name) return cell.expected;
  }
  return {};
}

}  // namespace ag::testutil

#endif  // AG_TESTS_TESTUTIL_RUN_DIGEST_H
