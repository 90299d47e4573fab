// The fluent experiment API: sweep wiring, JSON emission, and the
// parallelism contract — multi-seed points executed across N worker
// threads must be bit-identical to the serial run for fixed seeds.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "harness/experiment_builder.h"

namespace ag::harness {
namespace {

ScenarioConfig tiny_base() {
  ScenarioConfig c;
  c.node_count = 10;
  c.phy.transmission_range_m = 75.0;
  c.waypoint.max_speed_mps = 0.5;
  c.duration = sim::SimTime::seconds(40.0);
  c.workload.start = sim::SimTime::seconds(12.0);
  c.workload.end = sim::SimTime::seconds(32.0);
  return c;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t s = 0; s < a.series.size(); ++s) {
    EXPECT_EQ(a.series[s].name, b.series[s].name);
    ASSERT_EQ(a.series[s].points.size(), b.series[s].points.size());
    for (std::size_t i = 0; i < a.series[s].points.size(); ++i) {
      const SeriesPoint& pa = a.series[s].points[i];
      const SeriesPoint& pb = b.series[s].points[i];
      EXPECT_DOUBLE_EQ(pa.x, pb.x);
      EXPECT_DOUBLE_EQ(pa.received.mean, pb.received.mean);
      EXPECT_DOUBLE_EQ(pa.received.min, pb.received.min);
      EXPECT_DOUBLE_EQ(pa.received.max, pb.received.max);
      EXPECT_DOUBLE_EQ(pa.received.stddev, pb.received.stddev);
      EXPECT_EQ(pa.received.n, pb.received.n);
      EXPECT_EQ(pa.means, pb.means);
      EXPECT_EQ(pa.groups, pb.groups);
      ASSERT_EQ(pa.runs.size(), pb.runs.size());
      for (std::size_t r = 0; r < pa.runs.size(); ++r) {
        EXPECT_EQ(pa.runs[r].seed, pb.runs[r].seed);
        EXPECT_EQ(pa.runs[r].totals.channel_transmissions,
                  pb.runs[r].totals.channel_transmissions);
      }
    }
  }
}

TEST(ExperimentBuilder, ParallelSeedsMatchSerialExactly) {
  auto build = [] {
    return Experiment::sweep("range_m", {65.0, 80.0})
        .base(tiny_base())
        .protocols({Protocol::maodv_gossip, Protocol::maodv})
        .seeds(2);
  };
  ExperimentResult serial = build().parallel(1).run();
  ExperimentResult threaded = build().parallel(4).run();
  expect_identical(serial, threaded);
}

TEST(ExperimentBuilder, MatchesRunPointAggregation) {
  ScenarioConfig c = tiny_base();
  c.with_range(70.0).with_protocol(Protocol::maodv_gossip);
  SeriesPoint direct = run_point(c, 2, 70.0);
  ExperimentResult viaBuilder = Experiment::sweep("range_m", {70.0})
                                    .base(tiny_base())
                                    .protocols({Protocol::maodv_gossip})
                                    .seeds(2)
                                    .parallel(3)
                                    .run();
  const SeriesPoint& p = viaBuilder.series.front().points.front();
  EXPECT_DOUBLE_EQ(p.received.mean, direct.received.mean);
  EXPECT_DOUBLE_EQ(p.received.min, direct.received.min);
  EXPECT_DOUBLE_EQ(p.received.max, direct.received.max);
  EXPECT_EQ(p.received.n, direct.received.n);
  EXPECT_EQ(p.means, direct.means);
}

TEST(ExperimentBuilder, SeriesNamedFromRegistryAndSized) {
  ExperimentResult r = Experiment::sweep("range_m", {70.0, 80.0})
                           .base(tiny_base())
                           .protocols({Protocol::flooding})
                           .seeds(1)
                           .run();
  ASSERT_EQ(r.series.size(), 1u);
  EXPECT_EQ(r.series.front().name, "flooding");
  ASSERT_EQ(r.series.front().points.size(), 2u);
  EXPECT_EQ(r.series.front().points.front().runs.size(), 1u);
  EXPECT_GT(r.series.front().points.front().received.mean, 0.0);
}

TEST(ExperimentBuilder, UnknownSweepParameterThrowsImmediately) {
  EXPECT_THROW(Experiment::sweep("warp_factor", {9.0}), std::invalid_argument);
}

TEST(ExperimentBuilder, FaultAxesAreNamedKnobs) {
  // The churn bench sweeps these; a rename there must fail here.
  EXPECT_NO_THROW(Experiment::sweep("churn_per_min", {0.0, 1.0}));
  EXPECT_NO_THROW(Experiment::sweep("crash_fraction", {0.1}));
  EXPECT_NO_THROW(Experiment::sweep("partition_s", {30.0}));
}

TEST(ExperimentBuilder, CustomApplySweepsArbitraryKnobs) {
  ExperimentResult r =
      Experiment::sweep("pause_s", {0.0, 10.0},
                        [](ScenarioConfig& c, double x) { c.waypoint.max_pause_s = x; })
          .base(tiny_base())
          .protocols({Protocol::maodv})
          .seeds(1)
          .run();
  ASSERT_EQ(r.series.front().points.size(), 2u);
  EXPECT_EQ(r.param, "pause_s");
}

TEST(ExperimentBuilder, WritesJson) {
  const std::string path = "/tmp/ag_experiment_builder_test.json";
  ExperimentResult r = Experiment::sweep("range_m", {70.0})
                           .base(tiny_base())
                           .protocols({Protocol::maodv_gossip})
                           .seeds(1)
                           .name("builder_test")
                           .run();
  ASSERT_TRUE(r.write_json(path));
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"experiment\": \"builder_test\""), std::string::npos);
  EXPECT_NE(json.find("\"param\": \"range_m\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"maodv_gossip\""), std::string::npos);
  EXPECT_NE(json.find("\"x\": 70"), std::string::npos);
  EXPECT_NE(json.find("\"delivery_ratio\":"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SeedsFromEnv, RejectsZeroAndGarbage) {
  unsetenv("AG_SEEDS");
  EXPECT_EQ(seeds_from_env(4), 4u);
  setenv("AG_SEEDS", "0", 1);
  EXPECT_EQ(seeds_from_env(4), 4u);
  setenv("AG_SEEDS", "-3", 1);
  EXPECT_EQ(seeds_from_env(4), 4u);
  setenv("AG_SEEDS", "7abc", 1);
  EXPECT_EQ(seeds_from_env(4), 4u);
  setenv("AG_SEEDS", "", 1);
  EXPECT_EQ(seeds_from_env(4), 4u);
  setenv("AG_SEEDS", "12", 1);
  EXPECT_EQ(seeds_from_env(4), 12u);
  unsetenv("AG_SEEDS");
}

}  // namespace
}  // namespace ag::harness
