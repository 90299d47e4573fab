// Golden bytes for the two run-record writers: ExperimentResult::write_json
// (every BENCH_<figure>.json) and the shard checkpoint codec. Inputs are
// hand-made RunResults, no simulation, chosen so every field group
// prints: the receive summary and per-run ratios, the core and phy-work
// counters, sessions and custody, the adversary axis with non-integer
// seed means, a point whose every seed failed, a failed_shards entry and
// a series name that needs escaping. A change to either format must show
// up here as an edit to the expected text.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness/experiment.h"
#include "harness/experiment_builder.h"
#include "harness/shard.h"
#include "stats/run_result.h"

namespace fs = std::filesystem;
using namespace ag;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() /
          ("ag_golden_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

stats::MemberResult member(std::uint32_t node, std::uint64_t received,
                           std::uint64_t via_gossip, std::uint64_t replies_received,
                           std::uint64_t replies_useful, std::uint64_t eligible,
                           double latency_s) {
  stats::MemberResult m;
  m.node = net::NodeId{node};
  m.received = received;
  m.via_gossip = via_gossip;
  m.replies_received = replies_received;
  m.replies_useful = replies_useful;
  m.eligible = eligible;
  m.mean_latency_s = latency_s;
  return m;
}

// One run with every counter set to a distinct value derived from `k`, so
// a field printed under the wrong key or folded by the wrong rule shows.
stats::RunResult make_run(std::uint64_t seed, std::uint64_t k) {
  stats::RunResult r;
  r.seed = seed;
  r.packets_sent = 100;
  r.members.push_back(member(3, 90 + k, 7, 12, 9, stats::MemberResult::kEligibleAll, 0.1));
  r.members.push_back(member(11, 71 - k, 2, 5, 5, stats::MemberResult::kEligibleAll, 0.25));
  r.members.push_back(member(17, 99, 0, 0, 0, stats::MemberResult::kEligibleAll, 0.0));
  stats::NetworkTotals& t = r.totals;
  t.channel_transmissions = 5000 + k;
  t.phy_deliveries = 40000 + 3 * k;
  t.phy_suppressed_down = 10 + k;
  t.phy_suppressed_partition = 20 + k;
  t.sim_events = 900000 + k;
  for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c) {
    t.ev_scheduled[c] = 1000 * (c + 1) + k;
    t.ev_executed[c] = 900 * (c + 1) + k;
  }
  t.mac_backoff_slots_credited = 7000 + k;
  t.mac_difs_elided = 300 + k;
  t.phy_rx_elided = 1200 + k;
  t.phy_rx_coalesced = 800 + k;
  t.table_probes = 123456 + k;
  t.pool_hits = 6000 + k;
  t.pool_misses = 40 + k;
  t.mac_unicast = 700 + k;
  t.mac_broadcast = 4300 + k;
  t.mac_collisions = 55 + k;
  t.mac_queue_drops = 6 + k;
  t.rreq_originated = 31 + k;
  t.rerr_sent = 4 + k;
  t.grph_sent = 61 + k;
  t.mact_sent = 17 + k;
  t.data_forwarded = 2900 + k;
  t.gossip_walks = 410 + k;
  t.gossip_replies = 150 + k;
  t.nm_updates = 88 + k;
  t.repairs_started = 3 + k;
  t.partitions = 1;
  t.leaders_elected = 2 + k;
  return r;
}

void add_dtn(stats::RunResult& r, std::uint64_t k) {
  stats::NetworkTotals& t = r.totals;
  t.dtn_active = true;
  t.custody_stored = 210 + k;
  t.custody_evicted_ttl = 9 + k;
  t.custody_evicted_capacity = 5 + k;
  t.custody_offers = 330 + k;
  t.custody_offers_failed = 12 + k;
  t.custody_accepted = 190 + k;
  t.custody_duplicates = 27 + k;
  t.sessions.sessions = 2600;
  t.sessions.users_served = 150000 + 7 * k;
  t.sessions.user_eligible = 210001;
}

void add_adversary(stats::RunResult& r, std::uint64_t isolations,
                   std::uint64_t false_positives, double latency_s) {
  stats::NetworkTotals& t = r.totals;
  t.adversary_active = true;
  t.adversary_nodes = 8;
  t.adversary_absorbed = 1400 + isolations;
  t.adversary_poisoned = 77 + isolations;
  t.trust_isolations = isolations;
  t.trust_false_positives = false_positives;
  t.trust_filtered = 640 + isolations;
  t.trust_detection_latency_s = latency_s;
}

harness::ExperimentResult golden_experiment() {
  harness::ExperimentResult r;
  r.name = "golden";
  r.param = "range_m";
  r.seeds = 2;

  // Custody/sessions only, with churn-style eligibility on one member so
  // the delivery ratio takes the per-member branch.
  stats::RunResult d1 = make_run(1, 1);
  stats::RunResult d2 = make_run(2, 2);
  add_dtn(d1, 1);
  add_dtn(d2, 2);
  d2.members[1].eligible = 80;
  // Adversary axis only: isolations 3 + 4 and false positives 1 + 0 over
  // two seeds are the non-integer means 3.5 and 0.5.
  stats::RunResult a1 = make_run(1, 5);
  stats::RunResult a2 = make_run(2, 6);
  add_adversary(a1, 3, 1, 12.25);
  add_adversary(a2, 4, 0, 3.5);
  harness::FigureSeries escaped{"maodv \"v2\" \\ tab\t ctl\x01", {}};
  escaped.points.push_back(harness::aggregate_point(45.0, {d1, d2}));
  escaped.points.push_back(harness::aggregate_point(65.5, {a1, a2}));
  // Every seed of this point failed: it aggregates no runs at all.
  escaped.points.push_back(harness::aggregate_point(85.0, {}));
  r.series.push_back(escaped);

  // Both subsystems in one point, and a single-seed point with no
  // subsystem at all.
  stats::RunResult b1 = make_run(1, 9);
  stats::RunResult b2 = make_run(2, 10);
  add_dtn(b1, 9);
  add_adversary(b2, 1, 1, 0.1);
  harness::FigureSeries plain{"flooding", {}};
  plain.points.push_back(harness::aggregate_point(45.0, {b1, b2}));
  plain.points.push_back(harness::aggregate_point(65.5, {make_run(1, 12)}));
  r.series.push_back(plain);

  r.sharding.shards = 10;
  r.sharding.retried = 4;
  harness::FailedShard failed;
  failed.shard = 3;
  failed.cell.protocol = "maodv \"v2\"";
  failed.cell.x = 85.0;
  failed.cell.seed = 1;
  failed.attempts = 3;
  failed.reason = "exit 134 \"abort\"";
  r.sharding.failed.push_back(failed);
  return r;
}

TEST(RunRecordGolden, ExperimentJsonBytes) {
  const std::string path = temp_path("experiment.json");
  ASSERT_TRUE(golden_experiment().write_json(path));
  const std::string json = read_file(path);
  fs::remove(path);
  EXPECT_EQ(json, R"json({
  "experiment": "golden",
  "param": "range_m",
  "seeds": 2,
  "series": [
    {"name": "maodv \"v2\" \\ tab\t ctl\u0001", "points": [
      {"x": 45, "received_mean": 86.6666666667, "received_min": 69, "received_max": 99, "received_stddev": 13.7210300877, "receivers": 6, "delivery_ratio": 0.895416666667, "goodput_pct": 91.6666666667, "transmissions": 5001, "deliveries": 40004, "suppressed_down": 11, "suppressed_partition": 21, "table_probes": 123457, "pool_hits": 6001, "pool_misses": 41, "sessions": 2600, "users_served": 150010, "user_eligible": 210001, "users_served_ratio": 0.714332312703, "custody_stored": 211, "custody_offers": 331, "custody_accepted": 191},
      {"x": 65.5, "received_mean": 86.6666666667, "received_min": 65, "received_max": 99, "received_stddev": 16.476245527, "receivers": 6, "delivery_ratio": 0.866666666667, "goodput_pct": 91.6666666667, "transmissions": 5005, "deliveries": 40016, "suppressed_down": 15, "suppressed_partition": 25, "table_probes": 123461, "pool_hits": 6005, "pool_misses": 45, "adversary_nodes": 8, "adversary_absorbed": 1403, "adversary_poisoned": 80, "trust_isolations": 3.5, "trust_false_positives": 0.5, "trust_filtered": 643, "detection_latency_s": 7.875},
      {"x": 85, "received_mean": 0, "received_min": 0, "received_max": 0, "received_stddev": 0, "receivers": 0, "delivery_ratio": 0, "goodput_pct": 100, "transmissions": 0, "deliveries": 0, "suppressed_down": 0, "suppressed_partition": 0, "table_probes": 0, "pool_hits": 0, "pool_misses": 0}
    ]},
    {"name": "flooding", "points": [
      {"x": 45, "received_mean": 86.6666666667, "received_min": 61, "received_max": 100, "received_stddev": 19.5004273457, "receivers": 6, "delivery_ratio": 0.866666666667, "goodput_pct": 91.6666666667, "transmissions": 5009, "deliveries": 40028, "suppressed_down": 19, "suppressed_partition": 29, "table_probes": 123465, "pool_hits": 6009, "pool_misses": 49, "sessions": 1300, "users_served": 75031, "user_eligible": 105000, "users_served_ratio": 0.357291155756, "custody_stored": 109, "custody_offers": 169, "custody_accepted": 99, "adversary_nodes": 4, "adversary_absorbed": 700, "adversary_poisoned": 39, "trust_isolations": 0.5, "trust_false_positives": 0.5, "trust_filtered": 320, "detection_latency_s": 0.05},
      {"x": 65.5, "received_mean": 86.6666666667, "received_min": 59, "received_max": 102, "received_stddev": 24.00694344, "receivers": 3, "delivery_ratio": 0.866666666667, "goodput_pct": 91.6666666667, "transmissions": 5012, "deliveries": 40036, "suppressed_down": 22, "suppressed_partition": 32, "table_probes": 123468, "pool_hits": 6012, "pool_misses": 52}
    ]}
  ],
  "sharding": {"shards": 10, "retried": 4, "failed": 1, "failed_shards": [
    {"shard": 3, "protocol": "maodv \"v2\"", "x": 85, "seed": 1, "attempts": 3, "reason": "exit 134 \"abort\""}
  ]}
}
)json");
}

TEST(RunRecordGolden, CheckpointBytes) {
  stats::RunResult run = make_run(3, 4);
  add_dtn(run, 4);
  add_adversary(run, 5, 2, 17.125);
  run.members[2].eligible = 64;
  run.faults.crashes = 2;
  run.faults.reboots = 1;
  run.faults.leaves = 4;
  run.faults.joins = 3;
  run.faults.partitions = 1;
  run.faults.heals = 1;
  run.faults.node_down_s = 95.5;
  run.faults.partitioned_s = 0.3;

  const std::string path = temp_path("shard_7.json");
  const harness::CellId cell{"maodv_gossip", 62.5, 3};
  ASSERT_TRUE(harness::write_shard_json(path, "golden", 7, cell, run));
  const std::string json = read_file(path);
  EXPECT_EQ(json, R"json({
"format": 2,
"experiment": "golden",
"shard": 7,
"protocol": "maodv_gossip",
"x": 62.5,
"seed": 3,
"result": {"seed": 3, "packets_sent": 100,
"members": [
{"node": 3, "received": 94, "via_gossip": 7, "replies_received": 12, "replies_useful": 9, "eligible": 18446744073709551615, "mean_latency_s": 0.10000000000000001},
{"node": 11, "received": 67, "via_gossip": 2, "replies_received": 5, "replies_useful": 5, "eligible": 18446744073709551615, "mean_latency_s": 0.25},
{"node": 17, "received": 99, "via_gossip": 0, "replies_received": 0, "replies_useful": 0, "eligible": 64, "mean_latency_s": 0}],
"totals": {"transmissions": 5004, "deliveries": 40012, "suppressed_down": 14, "suppressed_partition": 24, "sim_events": 900004, "ev_scheduled": [1004,2004,3004,4004,5004,6004,7004,8004], "ev_executed": [904,1804,2704,3604,4504,5404,6304,7204], "mac_backoff_slots_credited": 7004, "mac_difs_elided": 304, "phy_rx_elided": 1204, "phy_rx_coalesced": 804, "table_probes": 123460, "pool_hits": 6004, "pool_misses": 44, "mac_unicast": 704, "mac_broadcast": 4304, "mac_collisions": 59, "mac_queue_drops": 10, "rreq_originated": 35, "rerr_sent": 8, "grph_sent": 65, "mact_sent": 21, "data_forwarded": 2904, "gossip_walks": 414, "gossip_replies": 154, "nm_updates": 92, "repairs_started": 7, "partitions": 1, "leaders_elected": 6, "custody_stored": 214, "custody_evicted_ttl": 13, "custody_evicted_capacity": 9, "custody_offers": 334, "custody_offers_failed": 16, "custody_accepted": 194, "custody_duplicates": 31, "adversary_nodes": 8, "adversary_absorbed": 1405, "adversary_poisoned": 82, "trust_isolations": 5, "trust_false_positives": 2, "trust_filtered": 645, "detection_latency_s": 17.125, "adversary_active": true, "sessions": 2600, "users_served": 150028, "user_eligible": 210001, "dtn_active": true},
"faults": {"crashes": 2, "reboots": 1, "leaves": 4, "joins": 3, "partitions": 1, "heals": 1, "node_down_s": 95.5, "partitioned_s": 0.29999999999999999}
}
}
)json");

  // The golden file reads back into the same record.
  std::string error;
  const std::optional<stats::RunResult> reread =
      harness::read_shard_json(path, "golden", 7, cell, &error);
  fs::remove(path);
  ASSERT_TRUE(reread.has_value()) << error;
  const std::string again = temp_path("shard_7_again.json");
  ASSERT_TRUE(harness::write_shard_json(again, "golden", 7, cell, *reread));
  EXPECT_EQ(read_file(again), json);
  fs::remove(again);
}

}  // namespace
