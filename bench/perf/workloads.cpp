#include "workloads.h"

#include <cmath>

namespace agbench {

namespace {

using ag::harness::Protocol;
using ag::harness::ScenarioConfig;

// The paper's Figure 2/3 grid at 40 nodes: MAODV with and without Anonymous
// Gossip over three ranges at the two max speeds of fig2_delivery_vs_range_slow
// (0.2 m/s) and fig3_delivery_vs_range_fast (2 m/s). Runs last 300 s instead
// of the paper's 600 s, with the source sending over the same share of the
// run (60-280 s), so that a measurement holds enough passes for each run's
// median time to be steady.
std::vector<ScenarioConfig> paper(std::uint64_t seed) {
  std::vector<ScenarioConfig> out;
  for (const Protocol p : {Protocol::maodv_gossip, Protocol::maodv}) {
    for (const double range : {45.0, 65.0, 85.0}) {
      for (const double speed : {0.2, 2.0}) {
        ScenarioConfig c;
        c.with_protocol(p).with_range(range).with_max_speed(speed);
        c.duration = ag::sim::SimTime::seconds(300.0);
        c.workload.start = ag::sim::SimTime::seconds(60.0);
        c.workload.end = ag::sim::SimTime::seconds(280.0);
        c.with_seed(seed + out.size());
        out.push_back(c);
      }
    }
  }
  return out;
}

// figure_churn's fault background at two churn rates over every core
// protocol: crashes wipe router state, a partition cuts the area in half,
// and members leave and rejoin.
std::vector<ScenarioConfig> churn(std::uint64_t seed) {
  std::vector<ScenarioConfig> out;
  for (const double churn_per_min : {1.0, 4.0}) {
    for (const Protocol p : {Protocol::maodv, Protocol::maodv_gossip, Protocol::flooding,
                             Protocol::odmrp, Protocol::odmrp_gossip}) {
      ScenarioConfig c;
      c.with_protocol(p).with_range(65.0).with_max_speed(1.0);
      c.faults.spec.crash_fraction = 0.15;
      c.faults.spec.crash_downtime_s = 60.0;
      c.faults.spec.partition_duration_s = 60.0;
      c.faults.spec.churn_downtime_s = 30.0;
      c.faults.spec.churn_per_min = churn_per_min;
      c.with_seed(seed + out.size());
      out.push_back(c);
    }
  }
  return out;
}

// `count` runs in scale_smoke's geometry: range 75 * sqrt(40 / n) holds the
// mean degree of the paper's network, the group stays at 13 members, and
// the source sends during the middle half of the run.
//
// The medium fills as the run goes on. At 1000 nodes, receptions per
// simulated second are 0.13M over an 8 s run, 0.34M over 20 s and 0.93M
// over scale_smoke's full 80 s, whose host time (23 s) they dominate. The
// 1000-node runs last 20 s, long enough to be well into that regime and
// short enough (1-2 s of host time each) for several passes per
// measurement; 40 s would take 7-9 s each. The work of a run varies by up
// to 2.5x between seeds, which receptions_per_s absorbs by counting it.
std::vector<ScenarioConfig> scale_runs(std::size_t nodes, double duration_s,
                                       std::size_t count, std::uint64_t seed) {
  std::vector<ScenarioConfig> out;
  for (std::size_t k = 0; k < count; ++k) {
    ScenarioConfig c;
    c.with_protocol(Protocol::maodv_gossip)
        .with_nodes(nodes)
        .with_range(75.0 * std::sqrt(40.0 / static_cast<double>(nodes)))
        .with_max_speed(1.0)
        .with_seed(seed + k);
    c.member_fraction = 13.0 / static_cast<double>(nodes);
    c.duration = ag::sim::SimTime::seconds(duration_s);
    c.workload.start = ag::sim::SimTime::seconds(0.25 * duration_s);
    c.workload.end = ag::sim::SimTime::seconds(0.75 * duration_s);
    out.push_back(c);
  }
  return out;
}

std::vector<ScenarioConfig> scale_1000(std::uint64_t seed) {
  return scale_runs(1000, 20.0, 3, seed);
}

std::vector<ScenarioConfig> scale_5000(std::uint64_t seed) {
  return scale_runs(5000, 6.0, 3, seed);
}

}  // namespace

const std::vector<Workload>& workloads() {
  // Why each workload is in the benchmark: BENCHMARK.json and README.md.
  static const std::vector<Workload> all = {
      {"paper", paper},
      {"churn", churn},
      {"scale_1000", scale_1000},
      {"scale_5000", scale_5000},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

ScenarioConfig self_test_config(std::uint64_t seed) {
  ScenarioConfig c;
  c.with_protocol(Protocol::maodv_gossip).with_nodes(20).with_range(85.0).with_seed(seed);
  c.duration = ag::sim::SimTime::seconds(30.0);
  c.workload.start = ag::sim::SimTime::seconds(8.0);
  c.workload.end = ag::sim::SimTime::seconds(26.0);
  return c;
}

}  // namespace agbench
