// Golden run digests: every cell of the fixed matrix in
// testutil/run_digest.h (the default scenario, the churn background, each
// substrate, custody with sessions under churn, each adversary mode with
// isolation on) runs once and must reproduce both committed digests. A
// change that moves any schema field of any of these runs shows up here;
// the failure message prints the digests the run actually produced.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "harness/network.h"
#include "testutil/run_digest.h"

namespace ag::testutil {
namespace {

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxull", static_cast<unsigned long long>(v));
  return buf;
}

TEST(RunDigestGolden, EveryCellReproducesItsCommittedDigests) {
  for (const GoldenCell& cell : golden_matrix()) {
    const RunDigests actual = digest_of(harness::run_scenario(cell.config));
    EXPECT_EQ(actual, cell.expected)
        << cell.name << ": actual digests {" << hex(actual.all) << ", "
        << hex(actual.engine_independent) << "}";
  }
}

TEST(RunDigestGolden, EngineIndependentDigestIgnoresOnlyEngineFields) {
  const stats::RunResult r = harness::run_scenario(golden_matrix().front().config);
  stats::RunResult engine_moved = r;
  engine_moved.totals.sim_events += 1;
  engine_moved.totals.ev_executed[0] += 1;
  engine_moved.totals.ev_scheduled[0] += 1;
  engine_moved.totals.mac_difs_elided += 1;
  engine_moved.totals.phy_rx_elided += 1;
  engine_moved.totals.phy_rx_coalesced += 1;
  engine_moved.totals.mac_backoff_slots_credited += 1;
  engine_moved.totals.pool_hits += 1;
  engine_moved.totals.pool_misses -= 1;
  EXPECT_NE(digest_of(engine_moved).all, digest_of(r).all);
  EXPECT_EQ(digest_of(engine_moved).engine_independent, digest_of(r).engine_independent);

  for (const auto move : {+[](stats::RunResult& x) { x.totals.table_probes += 1; },
                          +[](stats::RunResult& x) { x.totals.mac_collisions += 1; },
                          +[](stats::RunResult& x) { x.members[0].received += 1; },
                          +[](stats::RunResult& x) { x.faults.node_down_s += 0.5; }}) {
    stats::RunResult behaviour_moved = r;
    move(behaviour_moved);
    EXPECT_NE(digest_of(behaviour_moved).engine_independent,
              digest_of(r).engine_independent);
  }
}

}  // namespace
}  // namespace ag::testutil
