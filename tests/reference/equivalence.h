// The one equivalence check between engines: a scenario run on its own
// engines and again with oracle engines swapped in must agree on every
// engine-independent schema field (the golden digest's split,
// testutil/run_digest.h) and on the packets allocated, and per event
// category the events each run executed plus those it elided must agree.
// The MAC layer must match exactly, event counts and bookkeeping
// included, when both runs share its countdown, and the phy layer when
// they share both engines; a layer whose engine differs must show the
// oracle eliding nothing and the production engine eliding work.
#ifndef AG_TESTS_REFERENCE_EQUIVALENCE_H
#define AG_TESTS_REFERENCE_EQUIVALENCE_H

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/network.h"
#include "harness/scenario.h"
#include "sim/event_category.h"
#include "stats/run_result.h"
#include "testutil/run_digest.h"

namespace ag::reference {

// Events of category `c` a run executed or an analytic engine elided.
inline std::uint64_t represented(const stats::NetworkTotals& t, sim::EventCategory c) {
  const std::uint64_t executed = t.ev_executed[sim::category_index(c)];
  if (c == sim::EventCategory::phy_delivery) return executed + t.phy_events_elided();
  if (c == sim::EventCategory::mac_slot) return executed + t.mac_slots_elided();
  if (c == sim::EventCategory::mac_difs) return executed + t.mac_difs_elided;
  return executed;
}

struct Runs {
  stats::RunResult production;
  stats::RunResult oracle;
};

// Runs `config`, then `oracle(config)`, and checks the two runs agree.
inline Runs expect_equivalent(const harness::ScenarioConfig& config,
                              harness::ScenarioConfig (*oracle)(harness::ScenarioConfig)) {
  const harness::ScenarioConfig oracle_config = oracle(config);
  Runs runs{harness::run_scenario(config), harness::run_scenario(oracle_config)};
  const bool same_phy = config.phy.engine == oracle_config.phy.engine;
  const bool same_countdown = config.mac.countdown == oracle_config.mac.countdown;
  // A countdown's timers fire in FIFO order with the events scheduled for
  // the same microsecond, so a different countdown may reorder two frames
  // that start together. Their arrival order at a shared receiver decides
  // which doomed reception the batched phy elides, with no other effect:
  // the phy bookkeeping is exact only when both engines are shared.
  const bool same_engines = same_phy && same_countdown;

  std::vector<std::pair<std::string, std::uint64_t>> a, b;
  for (auto [run, out] : {std::pair{&runs.production, &a}, std::pair{&runs.oracle, &b}}) {
    testutil::walk_fields(*run, [&](std::string_view key, const std::uint64_t* v, std::size_t n) {
      for (std::size_t i = 0; i < n && !testutil::engine_dependent(key); ++i) {
        out->emplace_back(std::string{key}, v[i]);
      }
    });
  }
  EXPECT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    EXPECT_EQ(a[i], b[i]) << "field #" << i;
  }

  const stats::NetworkTotals& p = runs.production.totals;
  const stats::NetworkTotals& o = runs.oracle.totals;
  EXPECT_EQ(p.pool_hits + p.pool_misses, o.pool_hits + o.pool_misses) << "allocations";
  for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c) {
    const auto cat = static_cast<sim::EventCategory>(c);
    const char* name = sim::event_category_name(c);
    if ((cat == sim::EventCategory::mac_slot || cat == sim::EventCategory::mac_difs) &&
        !same_countdown) {
      // A countdown still running at the cutoff has had its elapsed DIFS
      // and slot events executed by a per-slot oracle; a fused countdown
      // represents them only once it pauses or fires.
      EXPECT_LE(represented(p, cat), represented(o, cat)) << name;
    } else if (cat == sim::EventCategory::phy_delivery && !same_engines) {
      // Reconstruction identity: elided credits settle as their would-be
      // finish times pass, so it holds across the run cutoff too.
      EXPECT_EQ(represented(p, cat), represented(o, cat)) << name;
      if (!same_phy) {
        EXPECT_LE(p.ev_scheduled[c], o.ev_scheduled[c]) << name;
      }
    } else {
      EXPECT_EQ(p.ev_scheduled[c], o.ev_scheduled[c]) << name;
      EXPECT_EQ(p.ev_executed[c], o.ev_executed[c]) << name;
    }
  }

  if (!same_phy) {
    // Every run here has multi-receiver delivery groups, so the batched
    // engine must actually be batching.
    EXPECT_EQ(o.phy_events_elided(), 0u);
    EXPECT_GT(p.phy_events_elided(), 0u);
  }
  if (same_countdown) {
    EXPECT_EQ(p.mac_backoff_slots_credited, o.mac_backoff_slots_credited);
    EXPECT_EQ(p.mac_difs_elided, o.mac_difs_elided);
    EXPECT_EQ(p.pool_hits, o.pool_hits);
  } else {
    // The per-slot oracle executes one mac_slot event per consumed slot
    // and one mac_difs event per DIFS wait.
    const auto slot = sim::category_index(sim::EventCategory::mac_slot);
    EXPECT_EQ(o.mac_events_elided(), 0u);
    EXPECT_EQ(o.ev_executed[slot], o.mac_backoff_slots_credited);
    if (o.ev_executed[slot] > 0) {
      EXPECT_LT(p.ev_executed[slot], o.ev_executed[slot]);
    }
  }
  if (same_engines) {
    EXPECT_EQ(p.phy_rx_elided, o.phy_rx_elided);
    EXPECT_EQ(p.phy_rx_coalesced, o.phy_rx_coalesced);
    EXPECT_EQ(p.sim_events, o.sim_events);
  } else {
    EXPECT_LE(p.sim_events, o.sim_events);
  }
  return runs;
}

}  // namespace ag::reference

#endif  // AG_TESTS_REFERENCE_EQUIVALENCE_H
