// Whole-run equivalence of the fused (event-elided) MAC backoff countdown
// against the per-slot oracle (tests/reference/), selected at construction
// through MacParams::countdown: fusing DIFS + backoff into one deadline and
// crediting slots analytically on pause must not move a single
// transmission, so full simulations are bit-identical — only the number of
// simulator events differs (that's the point). This is the suite the
// BENCH_fig2/BENCH_churn byte-identity claim rests on for the contention
// engine.
#include <gtest/gtest.h>

#include <string>

#include "harness/protocol_registry.h"
#include "harness/scenario.h"
#include "reference/engines.h"
#include "reference/equivalence.h"
#include "sim/event_category.h"
#include "stats/run_result.h"
#include "testutil/run_digest.h"

namespace ag::mac {
namespace {

// Checks `config` against the per-slot countdown and returns the per-slot
// run. The shared check lets a fused countdown still running at the
// cutoff trail the per-slot one; these scenarios end with no countdown in
// flight, so here the contention accounting matches exactly: the fused
// credit consumes exactly the slots the tick chain consumed — the
// strongest pin on the pause/resume arithmetic — its elided DIFS waits
// reconstruct the per-slot countdown's mac_difs events, and the pool
// hit/miss split matches.
stats::RunResult expect_exact_contention(const harness::ScenarioConfig& config) {
  const reference::Runs runs = reference::expect_equivalent(config, reference::with_per_slot_mac);
  const stats::NetworkTotals& a = runs.production.totals;
  const stats::NetworkTotals& b = runs.oracle.totals;
  const auto difs = sim::category_index(sim::EventCategory::mac_difs);
  EXPECT_EQ(a.mac_backoff_slots_credited, b.mac_backoff_slots_credited);
  EXPECT_EQ(a.ev_executed[difs] + a.mac_difs_elided, b.ev_executed[difs]);
  EXPECT_EQ(a.pool_hits, b.pool_hits);
  return runs.oracle;
}

TEST(BatchedBackoffEquivalence, WholeRunBitIdenticalToPerSlotReference) {
  const stats::RunResult per_slot = expect_exact_contention(testutil::short_run());
  EXPECT_EQ(testutil::digest_of(per_slot).engine_independent,
            testutil::golden_digests("default").engine_independent);
  expect_exact_contention(testutil::short_run().with_seed(2));
}

TEST(BatchedBackoffEquivalence, ChurnRunBitIdenticalToPerSlotReference) {
  // Churn exercises power_cycle mid-countdown, partition-driven busy/idle
  // flapping, and membership-driven queue churn.
  harness::ScenarioConfig base = testutil::short_run();
  base.faults.spec.churn_per_min = 3.0;
  base.faults.spec.crash_fraction = 0.2;
  base.faults.spec.partition_duration_s = 8.0;
  const stats::RunResult per_slot = expect_exact_contention(base.with_seed(5));
  EXPECT_GT(per_slot.faults.crashes + per_slot.faults.leaves + per_slot.faults.partitions,
            0u);
}

TEST(BatchedBackoffEquivalence, EveryProtocolBitIdentical) {
  // Different substrates drive very different MAC mixes (flooding is
  // broadcast-only and saturates; MAODV/ODMRP mix ACKed unicast in).
  for (const harness::Protocol p :
       {harness::Protocol::maodv_gossip, harness::Protocol::odmrp_gossip,
        harness::Protocol::flooding}) {
    const stats::RunResult per_slot = expect_exact_contention(testutil::protocol_cell(p));
    const std::string name = "protocol/" + harness::ProtocolRegistry::instance().name_of(p);
    EXPECT_EQ(testutil::digest_of(per_slot).engine_independent,
              testutil::golden_digests(name).engine_independent)
        << name;
  }
}

}  // namespace
}  // namespace ag::mac
