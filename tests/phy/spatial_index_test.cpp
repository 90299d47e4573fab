// The spatial index's contract: candidate sets always cover every
// receiver the brute-force scan would deliver to (the exact range check
// stays in the channel), across area borders, motion up to the declared
// max speed, highway wrap-around, teleports, and faults — and whole runs
// are bit-identical with the index on vs. off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment_builder.h"
#include "harness/network.h"
#include "mobility/highway.h"
#include "mobility/random_waypoint.h"
#include "mobility/static_mobility.h"
#include "phy/channel.h"
#include "phy/radio.h"
#include "phy/spatial_index.h"
#include "reference/equivalence.h"
#include "sim/simulator.h"

namespace ag::phy {
namespace {

// Every node within `range_m` of every sender must appear in the sender's
// candidate set (the index may over-approximate, never under-approximate).
void expect_candidates_cover_range(const mobility::MobilityModel& model,
                                   SpatialIndex& index, sim::SimTime now,
                                   double range_m) {
  index.refresh_if_stale(now);
  std::vector<std::uint32_t> candidates;
  for (std::size_t s = 0; s < index.node_count(); ++s) {
    const mobility::Vec2 from = model.position_of(s, now);
    candidates.clear();
    index.collect_candidates(from, candidates);
    for (std::size_t i = 0; i < index.node_count(); ++i) {
      if (mobility::distance_sq(from, model.position_of(i, now)) >
          range_m * range_m) {
        continue;
      }
      EXPECT_TRUE(std::find(candidates.begin(), candidates.end(),
                            static_cast<std::uint32_t>(i)) != candidates.end())
          << "node " << i << " in range of sender " << s << " at t="
          << now.to_seconds() << "s but not a candidate";
    }
  }
}

TEST(SpatialIndex, CellAssignmentAtAreaBorders) {
  // Nodes on every corner, edge midpoint, and the exact bounds maxima —
  // positions that land on cell boundaries and the clamped last cells.
  mobility::StaticMobility m{{{0, 0}, {200, 0}, {0, 200}, {200, 200},
                              {100, 0}, {0, 100}, {200, 100}, {100, 200},
                              {100, 100}, {199.999, 199.999}, {0.001, 0.001}}};
  SpatialIndex index{m, m.node_count(), 75.0};
  expect_candidates_cover_range(m, index, sim::SimTime::zero(), 75.0);
  EXPECT_GE(index.cell_size_m(), 75.0);
  EXPECT_GE(index.cols(), 1u);
  EXPECT_GE(index.rows(), 1u);
}

TEST(SpatialIndex, DegenerateGeometriesStillCover) {
  // A line (zero height) and a single point (zero area).
  mobility::StaticMobility line = mobility::StaticMobility::line(7, 30.0);
  SpatialIndex line_index{line, line.node_count(), 50.0};
  expect_candidates_cover_range(line, line_index, sim::SimTime::zero(), 50.0);

  mobility::StaticMobility point{{{5, 5}, {5, 5}, {5, 5}}};
  SpatialIndex point_index{point, point.node_count(), 10.0};
  expect_candidates_cover_range(point, point_index, sim::SimTime::zero(), 10.0);
}

TEST(SpatialIndex, TeleportsOutsideBoundsAreFound) {
  mobility::StaticMobility m{{{0, 0}, {50, 0}, {100, 0}}};
  SpatialIndex index{m, m.node_count(), 60.0};
  index.refresh_if_stale(sim::SimTime::zero());

  // Teleport two nodes far outside the original bounds, near each other:
  // the generation bump must invalidate the buckets, and clamping must
  // still put them in each other's neighborhoods.
  m.move_to(0, {5000.0, -3000.0});
  m.move_to(1, {5040.0, -3000.0});
  expect_candidates_cover_range(m, index, sim::SimTime::zero(), 60.0);
}

TEST(SpatialIndex, MarginCoversMotionAtMaxSpeed) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    sim::Simulator sim{seed};
    mobility::RandomWaypointConfig cfg;
    cfg.max_speed_mps = 5.0;
    cfg.max_pause_s = 0.5;
    mobility::RandomWaypoint rwp{sim, 50, cfg, sim.rng().stream("mobility")};
    ASSERT_DOUBLE_EQ(rwp.max_speed_mps(), 5.0);
    SpatialIndex index{rwp, 50, 40.0};
    ASSERT_GT(index.margin_m(), 0.0);

    // Walk through several epochs; between the sweep steps, also query at
    // exactly the epoch horizon — the worst case the margin must cover.
    for (double t = 0.0; t < 12.0; t += 0.61) {
      sim.run_until(sim::SimTime::seconds(t));
      expect_candidates_cover_range(rwp, index, sim.now(), 40.0);
      const sim::SimTime horizon = index.valid_until();
      if (horizon < sim::SimTime::seconds(12.0)) {
        sim.run_until(horizon);
        expect_candidates_cover_range(rwp, index, sim.now(), 40.0);
      }
    }
    EXPECT_GT(index.rebuilds(), 1u) << "margin test never crossed an epoch";
  }
}

TEST(SpatialIndex, HighwayWrapAroundKeepsCoverage) {
  sim::Rng rng{9};
  mobility::HighwayConfig cfg;
  cfg.length_m = 400.0;
  cfg.lanes = 2;
  cfg.min_speed_mps = 25.0;
  cfg.max_speed_mps = 35.0;
  mobility::HighwayMobility hw{20, cfg, rng};
  ASSERT_TRUE(hw.wraps_x());
  SpatialIndex index{hw, 20, 60.0};

  // 30 s at ~30 m/s over a 400 m stretch: every car wraps at least twice;
  // coverage must hold right through the wrap instants.
  for (double t = 0.0; t < 30.0; t += 0.29) {
    expect_candidates_cover_range(hw, index, sim::SimTime::seconds(t), 60.0);
  }
  EXPECT_GT(index.rebuilds(), 1u);
}

TEST(SpatialIndex, WrapSeamWithNonDividingLengthKeepsCoverage) {
  // Regression: 1000 m / (120 + 30) cell leaves a narrow seam column
  // unless columns are widened to tile the circumference exactly. A car
  // bucketed just past the seam that drifts backward across it within
  // one epoch used to vanish from the candidate set of senders one
  // column away on the other side.
  sim::Rng rng{11};
  mobility::HighwayConfig cfg;
  cfg.length_m = 1000.0;
  cfg.lanes = 2;
  cfg.min_speed_mps = 25.0;
  cfg.max_speed_mps = 35.0;
  mobility::HighwayMobility hw{100, cfg, rng};
  SpatialIndex index{hw, 100, 120.0};
  ASSERT_GE(index.cols(), 2u);

  for (double t = 0.0; t < 60.0; t += 0.31) {
    expect_candidates_cover_range(hw, index, sim::SimTime::seconds(t), 120.0);
  }
  EXPECT_GT(index.rebuilds(), 1u);
}

// ---------------------------------------------------------------- channel

class CountingListener : public RadioListener {
 public:
  void on_frame_received(const mac::Frame&) override { ++received; }
  void on_medium_busy() override {}
  void on_medium_idle() override {}
  void on_transmit_complete() override {}
  int received{0};
};

struct IndexedFixture {
  explicit IndexedFixture(std::vector<mobility::Vec2> positions, double range,
                          bool use_index)
      : mobility{std::move(positions)},
        channel{sim, mobility, PhyParams{range, use_index}} {
    for (std::size_t i = 0; i < mobility.node_count(); ++i) {
      radios.push_back(std::make_unique<Radio>(channel, i));
      listeners.push_back(std::make_unique<CountingListener>());
      radios.back()->set_listener(listeners.back().get());
    }
  }
  sim::Simulator sim;
  mobility::StaticMobility mobility;
  Channel channel;
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<std::unique_ptr<CountingListener>> listeners;
};

mac::Frame broadcast_frame(std::uint32_t src) {
  mac::Frame f;
  f.kind = mac::FrameKind::data;
  f.mac_src = net::NodeId{src};
  f.mac_dst = net::NodeId::broadcast();
  f.packet = net::make_packet(net::NodeId{src}, net::NodeId::broadcast(), 32,
                              aodv::HelloMsg{net::NodeId{src}, net::SeqNo{1}});
  return f;
}

TEST(ChannelSpatialIndex, FaultedNodesNeverReceiveWithIndexOn) {
  IndexedFixture f{{{0, 0}, {40, 0}, {80, 0}, {500, 0}}, 100.0, /*use_index=*/true};
  ASSERT_TRUE(f.channel.params().use_spatial_index);

  f.channel.set_node_down(1, true);
  f.radios[0]->transmit(broadcast_frame(0));
  f.sim.run_all();
  EXPECT_EQ(f.listeners[1]->received, 0);  // downed: suppressed
  EXPECT_EQ(f.listeners[2]->received, 1);
  EXPECT_EQ(f.listeners[3]->received, 0);  // out of range entirely
  EXPECT_EQ(f.channel.suppressed_down(), 1u);
  EXPECT_EQ(f.channel.deliveries(), 1u);

  f.channel.set_node_down(1, false);
  f.channel.set_partition({0, 1, 0, 0});
  f.radios[0]->transmit(broadcast_frame(0));
  f.sim.run_all();
  EXPECT_EQ(f.listeners[1]->received, 0);  // across the cut: suppressed
  EXPECT_EQ(f.listeners[2]->received, 2);
  EXPECT_EQ(f.channel.suppressed_partition(), 1u);
  EXPECT_EQ(f.channel.deliveries(), 2u);
}

TEST(ChannelSpatialIndex, CountersMatchBruteForce) {
  const std::vector<mobility::Vec2> positions{
      {0, 0}, {30, 0}, {60, 10}, {90, 40}, {150, 150}, {10, 95}, {95, 95}};
  std::uint64_t expected[3] = {0, 0, 0};
  for (const bool use_index : {false, true}) {
    IndexedFixture f{positions, 100.0, use_index};
    ASSERT_EQ(f.channel.params().use_spatial_index, use_index);
    f.channel.set_node_down(2, true);
    f.channel.set_partition({0, 1, 0, 0, 0, 1, 0});
    for (std::size_t s = 0; s < positions.size(); ++s) {
      if (s == 2) continue;
      f.radios[s]->transmit(broadcast_frame(static_cast<std::uint32_t>(s)));
      f.sim.run_all();
    }
    if (!use_index) {
      expected[0] = f.channel.deliveries();
      expected[1] = f.channel.suppressed_down();
      expected[2] = f.channel.suppressed_partition();
      EXPECT_GT(expected[0], 0u);
      EXPECT_GT(expected[1], 0u);
      EXPECT_GT(expected[2], 0u);
    } else {
      EXPECT_EQ(f.channel.deliveries(), expected[0]);
      EXPECT_EQ(f.channel.suppressed_down(), expected[1]);
      EXPECT_EQ(f.channel.suppressed_partition(), expected[2]);
    }
  }
}

// ------------------------------------------------- whole-run equivalence

harness::ScenarioConfig short_scenario(bool use_index) {
  harness::ScenarioConfig c;
  c.node_count = 40;
  c.duration = sim::SimTime::seconds(40.0);
  c.workload.start = sim::SimTime::seconds(10.0);
  c.workload.end = sim::SimTime::seconds(30.0);
  c.phy.use_spatial_index = use_index;
  return c;
}

// The index only changes how receivers are found, so the shared check
// (both runs on the same engines) pins even the event counts exactly.
harness::ScenarioConfig brute_force(harness::ScenarioConfig c) {
  c.phy.use_spatial_index = false;
  return c;
}

TEST(ChannelSpatialIndex, WholeRunBitIdenticalToBruteForce) {
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    reference::expect_equivalent(short_scenario(true).with_seed(seed), brute_force);
  }
}

TEST(ChannelSpatialIndex, ChurnRunBitIdenticalToBruteForce) {
  harness::ScenarioConfig base = short_scenario(true);
  base.faults.spec.churn_per_min = 3.0;
  base.faults.spec.crash_fraction = 0.2;
  base.faults.spec.partition_duration_s = 8.0;

  const stats::NetworkTotals on =
      reference::expect_equivalent(base.with_seed(5), brute_force).production.totals;
  // Faults exercise the suppression paths for real.
  EXPECT_GT(on.phy_suppressed_down + on.phy_suppressed_partition, 0u);
}

TEST(ChannelSpatialIndex, Fig2StyleJsonBitIdentical) {
  auto run_json = [](bool use_index, const std::string& path) {
    harness::ExperimentResult r =
        harness::Experiment::sweep("range_m", {55.0, 75.0})
            .base(short_scenario(use_index))
            .protocols({harness::Protocol::maodv_gossip, harness::Protocol::maodv})
            .seeds(2)
            .parallel(2)
            .name("fig2_equiv")
            .run();
    ASSERT_TRUE(r.write_json(path));
  };
  run_json(true, "EQUIV_index_on.json");
  run_json(false, "EQUIV_index_off.json");

  auto slurp = [](const std::string& path) {
    std::ifstream in{path};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string on = slurp("EQUIV_index_on.json");
  const std::string off = slurp("EQUIV_index_off.json");
  ASSERT_FALSE(on.empty());
  EXPECT_EQ(on, off) << "BENCH json differs between index on and off";
  std::remove("EQUIV_index_on.json");
  std::remove("EQUIV_index_off.json");
}

}  // namespace
}  // namespace ag::phy
