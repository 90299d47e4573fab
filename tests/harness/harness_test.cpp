#include <gtest/gtest.h>

#include <cstdio>

#include "aodv/params.h"
#include "harness/experiment.h"
#include "harness/figure.h"
#include "harness/network.h"
#include "harness/scenario.h"
#include "maodv/params.h"

namespace ag::harness {
namespace {

TEST(Scenario, PaperDefaults) {
  ScenarioConfig c;
  EXPECT_EQ(c.node_count, 40u);
  EXPECT_EQ(c.member_count(), 13u);  // one third of 40, rounded
  EXPECT_DOUBLE_EQ(c.waypoint.area_width_m, 200.0);
  EXPECT_DOUBLE_EQ(c.waypoint.max_pause_s, 80.0);
  EXPECT_EQ(c.workload.packet_count(), 2201u);
  EXPECT_DOUBLE_EQ(phy::kBitrateBps, 2e6);
  EXPECT_EQ(aodv::kHelloInterval, sim::Duration::ms(600));
  EXPECT_EQ(aodv::kAllowedHelloLoss, 4u);
  EXPECT_EQ(maodv::kGroupHelloInterval, sim::Duration::ms(5000));
  EXPECT_EQ(c.gossip.round_interval, sim::Duration::ms(1000));
  EXPECT_EQ(gossip::kMaxLostInMessage, 10u);
  EXPECT_EQ(gossip::kMemberCacheSize, 10u);
  EXPECT_EQ(gossip::kLostTableCapacity, 200u);
  EXPECT_EQ(gossip::kHistoryCapacity, 100u);
}

TEST(Scenario, WithersChainAndApply) {
  ScenarioConfig c;
  c.with_range(55.0).with_max_speed(2.0).with_nodes(100).with_seed(9);
  EXPECT_DOUBLE_EQ(c.phy.transmission_range_m, 55.0);
  EXPECT_DOUBLE_EQ(c.waypoint.max_speed_mps, 2.0);
  EXPECT_EQ(c.node_count, 100u);
  EXPECT_EQ(c.seed, 9u);
  c.with_protocol(Protocol::maodv);
  EXPECT_FALSE(c.gossip.enabled);
  c.with_protocol(Protocol::maodv_gossip);
  EXPECT_TRUE(c.gossip.enabled);
}

TEST(Scenario, MemberCountNeverBelowTwo) {
  ScenarioConfig c;
  c.node_count = 3;
  EXPECT_EQ(c.member_count(), 2u);
}

TEST(Scenario, MemberFractionOutsideUnitIntervalThrows) {
  ScenarioConfig c;
  c.member_fraction = 0.0;
  EXPECT_THROW((void)c.member_count(), std::invalid_argument);
  c.member_fraction = -0.5;
  EXPECT_THROW((void)c.member_count(), std::invalid_argument);
  c.member_fraction = 1.5;
  EXPECT_THROW((void)c.member_count(), std::invalid_argument);
  c.member_fraction = 1.0;  // inclusive upper bound is fine
  EXPECT_EQ(c.member_count(), c.node_count);
}

TEST(Scenario, MemberCountExceedingNodesThrows) {
  // The two-member floor cannot be met on a one-node network; this used
  // to clamp silently into an impossible configuration.
  ScenarioConfig c;
  c.node_count = 1;
  EXPECT_THROW((void)c.member_count(), std::invalid_argument);
}

TEST(Experiment, RunPointAggregatesSeeds) {
  ScenarioConfig c;
  c.node_count = 12;
  c.duration = sim::SimTime::seconds(40.0);
  c.workload.start = sim::SimTime::seconds(15.0);
  c.workload.end = sim::SimTime::seconds(35.0);
  c.with_protocol(Protocol::maodv_gossip);
  SeriesPoint p = run_point(c, 2, 75.0);
  EXPECT_DOUBLE_EQ(p.x, 75.0);
  EXPECT_EQ(p.runs.size(), 2u);
  // 3 receivers (4 members minus source) x 2 seeds.
  EXPECT_EQ(p.received.n, 6u);
  EXPECT_GE(p.received.max, p.received.mean);
  EXPECT_LE(p.received.min, p.received.mean);
}

TEST(Experiment, SeedsFromEnvFallback) {
  unsetenv("AG_SEEDS");
  EXPECT_EQ(seeds_from_env(4), 4u);
  setenv("AG_SEEDS", "7", 1);
  EXPECT_EQ(seeds_from_env(4), 7u);
  setenv("AG_SEEDS", "junk", 1);
  EXPECT_EQ(seeds_from_env(4), 4u);
  unsetenv("AG_SEEDS");
}

TEST(Figure, CsvRoundTrip) {
  FigureSeries gossip{"Gossip", {}};
  SeriesPoint p;
  p.x = 45.0;
  p.received.mean = 100.5;
  p.received.min = 90;
  p.received.max = 110;
  gossip.points.push_back(p);
  const std::string path = "/tmp/ag_figure_test.csv";
  ASSERT_TRUE(write_figure_csv(path, {gossip}));
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256];
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);
  EXPECT_STREQ(buf, "x,Gossip_avg,Gossip_min,Gossip_max\n");
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);
  EXPECT_STREQ(buf, "45,100.5,90,110\n");
  std::fclose(f);
}

TEST(Network, MembersAreFirstThirdAndSourceIsMemberZero) {
  ScenarioConfig c;
  c.node_count = 12;
  c.duration = sim::SimTime::seconds(1.0);
  Network net{c};
  EXPECT_EQ(net.source_index(), 0u);
  EXPECT_TRUE(net.is_member(0));
  EXPECT_TRUE(net.is_member(3));
  EXPECT_FALSE(net.is_member(4));
  EXPECT_EQ(net.node_count(), 12u);
}

TEST(Network, ResultExcludesSourceFromMembers) {
  ScenarioConfig c;
  c.node_count = 12;
  c.duration = sim::SimTime::seconds(30.0);
  c.workload.start = sim::SimTime::seconds(10.0);
  c.workload.end = sim::SimTime::seconds(20.0);
  Network net{c};
  net.run();
  stats::RunResult r = net.result();
  EXPECT_EQ(r.members.size(), c.member_count() - 1);
  for (const auto& m : r.members) EXPECT_NE(m.node, net::NodeId{0});
  EXPECT_EQ(r.packets_sent, 51u);
}

TEST(Network, FloodingProtocolRuns) {
  ScenarioConfig c;
  c.node_count = 10;
  c.duration = sim::SimTime::seconds(30.0);
  c.workload.start = sim::SimTime::seconds(5.0);
  c.workload.end = sim::SimTime::seconds(25.0);
  c.with_protocol(Protocol::flooding);
  stats::RunResult r = run_scenario(c);
  EXPECT_GT(r.received_summary().mean, 0.0);
  EXPECT_GT(r.totals.data_forwarded, 0u);
  EXPECT_EQ(r.totals.grph_sent, 0u);  // no MAODV machinery in this mode
}

}  // namespace
}  // namespace ag::harness
