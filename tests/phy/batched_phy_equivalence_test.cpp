// Whole-run equivalence of the batched phy delivery engine against the
// per-receiver oracle (tests/reference/), selected at construction through
// PhyParams::engine: sweeping one completion event over a delivery group
// and analytically eliding doomed receptions must not move a single
// listener callback, so full simulations are bit-identical — only the
// number of simulator events differs (that's the point). This is the
// suite the BENCH_fig2/BENCH_churn byte-identity claim rests on, the
// phy-layer analogue of batched_backoff_equivalence_test. The dtn and
// adversary cells run both oracles at once (per-receiver phy and per-slot
// MAC), the engine pair the figure_dtn/figure_adversary JSONs rest on.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/protocol_registry.h"
#include "harness/scenario.h"
#include "mobility/static_mobility.h"
#include "phy/channel.h"
#include "phy/radio.h"
#include "reference/engines.h"
#include "reference/equivalence.h"
#include "sim/simulator.h"
#include "stats/run_result.h"
#include "testutil/run_digest.h"

namespace ag::phy {
namespace {

using reference::expect_equivalent;
using reference::with_reference_phy;
using testutil::golden_digests;

// Both oracles at once: per-receiver phy under the per-slot MAC.
harness::ScenarioConfig with_both_oracles(harness::ScenarioConfig c) {
  return reference::with_per_slot_mac(with_reference_phy(std::move(c)));
}

TEST(BatchedPhyEquivalence, WholeRunBitIdenticalToPerReceiverReference) {
  const stats::RunResult reference =
      expect_equivalent(testutil::short_run(), with_reference_phy).oracle;
  EXPECT_EQ(testutil::digest_of(reference).engine_independent,
            golden_digests("default").engine_independent);
  expect_equivalent(testutil::short_run().with_seed(2), with_reference_phy);
}

TEST(BatchedPhyEquivalence, ChurnRunBitIdenticalToPerReceiverReference) {
  // Churn exercises abort_receptions on crash (radio loses power
  // mid-frame), down-node suppression inside delivery groups, and
  // partition-driven group membership changes.
  harness::ScenarioConfig base = testutil::short_run();
  base.faults.spec.churn_per_min = 3.0;
  base.faults.spec.crash_fraction = 0.2;
  base.faults.spec.partition_duration_s = 8.0;
  const stats::RunResult reference =
      expect_equivalent(base.with_seed(5), with_reference_phy).oracle;
  EXPECT_GT(reference.faults.crashes + reference.faults.leaves + reference.faults.partitions,
            0u);

  const stats::RunResult background =
      expect_equivalent(testutil::churn_background(), with_reference_phy).oracle;
  EXPECT_EQ(testutil::digest_of(background).engine_independent,
            golden_digests("churn").engine_independent);
}

TEST(BatchedPhyEquivalence, EveryProtocolBitIdentical) {
  // Different substrates drive very different delivery-group shapes
  // (flooding saturates every cell; MAODV/ODMRP mix ACKed unicast in).
  for (const harness::Protocol p :
       {harness::Protocol::maodv_gossip, harness::Protocol::odmrp_gossip,
        harness::Protocol::flooding}) {
    const stats::RunResult reference =
        expect_equivalent(testutil::protocol_cell(p), with_reference_phy).oracle;
    const std::string name = "protocol/" + harness::ProtocolRegistry::instance().name_of(p);
    EXPECT_EQ(testutil::digest_of(reference).engine_independent,
              golden_digests(name).engine_independent)
        << name;
  }
}

TEST(BatchedPhyEquivalence, BitIdenticalUnderPerSlotMacReferenceToo) {
  // The per-slot MAC polls medium_busy()/idle_for() far more aggressively
  // than the fused countdown, so run the phy A/B under it to pin the
  // facade queries at every slot edge.
  harness::ScenarioConfig c = testutil::protocol_cell(harness::Protocol::maodv_gossip);
  expect_equivalent(reference::with_per_slot_mac(c.with_seed(7)), with_reference_phy);
}

TEST(BatchedPhyEquivalence, ReferenceEnginesReproduceDtnCells) {
  // figure_dtn's smoke grid: custody budget {0, 64} x session duty
  // {1, 0.25} over the crash/partition/churn background.
  for (const std::uint32_t budget : {0u, 64u}) {
    for (const double duty : {1.0, 0.25}) {
      SCOPED_TRACE("budget=" + std::to_string(budget) + " duty=" + std::to_string(duty));
      const stats::RunResult reference =
          expect_equivalent(testutil::dtn_cell(budget, duty), with_both_oracles).oracle;
      EXPECT_GT(reference.totals.sessions.users_served, 0u);
      if (budget == 64 && duty == 0.25) {
        EXPECT_EQ(testutil::digest_of(reference).engine_independent,
                  golden_digests("dtn/custody").engine_independent);
      }
    }
  }
}

TEST(BatchedPhyEquivalence, ReferenceEnginesReproduceAdversaryCells) {
  // figure_adversary's smoke grid: its two modes, isolation off and on,
  // over flooding_gossip and maodv_gossip.
  for (const harness::Protocol p :
       {harness::Protocol::flooding_gossip, harness::Protocol::maodv_gossip}) {
    for (const auto& [mode, name] :
         {std::pair{faults::AdversaryMode::selective_forward, "selective_forward"},
          std::pair{faults::AdversaryMode::gossip_poison, "gossip_poison"}}) {
      for (const bool isolation : {false, true}) {
        SCOPED_TRACE(std::string{name} + " isolation=" + (isolation ? "on" : "off") +
                     " over " + harness::ProtocolRegistry::instance().name_of(p));
        const stats::RunResult reference = expect_equivalent(
            testutil::adversary_cell(p, mode, isolation), with_both_oracles).oracle;
        EXPECT_GT(reference.totals.adversary_nodes, 0u);
        if (p == harness::Protocol::flooding_gossip && isolation) {
          EXPECT_EQ(testutil::digest_of(reference).engine_independent,
                    golden_digests(std::string{"adversary/"} + name).engine_independent);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Radio-level trace equivalence: drive bare Radios (no MAC above) with a
// fixed pseudo-random transmit schedule across two dense cells and
// compare the complete per-node listener callback traces, timestamps
// included. This catches any reordering the whole-run statistics could
// mask.

struct TraceEvent {
  std::int64_t t_us;
  char kind;  // 'b' busy, 'i' idle, 'r' frame received, 'c' tx complete
  std::uint32_t src{0};
  std::uint32_t seq{0};
  bool operator==(const TraceEvent&) const = default;
};

class TracingListener : public RadioListener {
 public:
  explicit TracingListener(sim::Simulator& sim) : sim_{&sim} {}
  void on_frame_received(const mac::Frame& frame) override {
    trace.push_back({sim_->now().count_us(), 'r', frame.mac_src.value(),
                     frame.mac_seq});
  }
  void on_medium_busy() override { trace.push_back({sim_->now().count_us(), 'b'}); }
  void on_medium_idle() override { trace.push_back({sim_->now().count_us(), 'i'}); }
  void on_transmit_complete() override {
    trace.push_back({sim_->now().count_us(), 'c'});
  }

  std::vector<TraceEvent> trace;

 private:
  sim::Simulator* sim_;
};

mac::Frame trace_frame(std::uint32_t src, std::uint16_t seq, std::uint16_t payload) {
  // Mixed airtimes matter: a short frame arriving doomed mid-way through
  // a long reception is the case the batched engine elides (its end is
  // strictly covered), so the schedule must interleave sizes.
  mac::Frame f;
  f.kind = mac::FrameKind::data;
  f.mac_src = net::NodeId{src};
  f.mac_dst = net::NodeId::broadcast();
  f.mac_seq = seq;
  net::MulticastData data;
  data.group = net::GroupId{1};
  data.origin = net::NodeId{src};
  data.seq = seq;
  data.payload_bytes = payload;
  f.packet = net::make_packet(net::NodeId{src}, net::NodeId::broadcast(), 32, data);
  return f;
}

struct TraceRun {
  std::vector<std::vector<TraceEvent>> traces;  // per node
  std::vector<Radio::Counters> counters;        // per node
  std::uint64_t transmissions{0};
  std::uint64_t deliveries{0};
  std::uint64_t rx_elided{0};
  std::uint64_t rx_coalesced{0};
};

TraceRun run_trace(bool batched) {

  // Two dense cells 600 m apart: every node hears its whole cell and
  // nothing across — delivery groups of up to 11 receivers, overlapping
  // storms within a cell, and concurrent independent traffic per cell.
  std::vector<mobility::Vec2> positions;
  for (std::uint32_t i = 0; i < 12; ++i) {
    positions.push_back({static_cast<double>(i % 4) * 12.0,
                         static_cast<double>(i / 4) * 12.0});
  }
  for (std::uint32_t i = 0; i < 8; ++i) {
    positions.push_back({600.0 + static_cast<double>(i % 4) * 12.0,
                         static_cast<double>(i / 4) * 12.0});
  }
  const std::size_t n = positions.size();

  sim::Simulator sim;
  mobility::StaticMobility mobility{std::move(positions)};
  PhyParams params{100.0};
  if (!batched) params.engine = &reference::per_receiver_phy;
  Channel channel{sim, mobility, params};
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<std::unique_ptr<TracingListener>> listeners;
  for (std::size_t i = 0; i < n; ++i) {
    radios.push_back(std::make_unique<Radio>(channel, i));
    listeners.push_back(std::make_unique<TracingListener>(sim));
    radios.back()->set_listener(listeners.back().get());
  }

  // Deterministic LCG (same constants as glibc) so both modes see the
  // byte-identical schedule; a node already mid-transmission skips its
  // slot — that decision reads engine state, so a divergence would
  // cascade into the traces and fail the comparison below.
  std::uint64_t lcg = 12345;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(lcg >> 33);
  };
  for (std::uint16_t k = 0; k < 400; ++k) {
    const std::int64_t at = 200 + static_cast<std::int64_t>(k) * 250 +
                            static_cast<std::int64_t>(next() % 200);
    const std::uint32_t node = next() % static_cast<std::uint32_t>(n);
    const auto payload =
        static_cast<std::uint16_t>(8u + (next() % 4u) * 250u);  // ~0.3 to ~3.3 ms air
    sim.schedule_at(sim::SimTime::us(at), [&radios, node, k, payload] {
      if (!radios[node]->transmitting()) {
        radios[node]->transmit(trace_frame(node, k, payload));
      }
    });
  }
  sim.run_all();

  TraceRun out;
  for (std::size_t i = 0; i < n; ++i) {
    out.traces.push_back(listeners[i]->trace);
    out.counters.push_back(radios[i]->counters());
  }
  out.transmissions = channel.transmissions();
  out.deliveries = channel.deliveries();
  out.rx_elided = channel.engine().rx_elided();
  out.rx_coalesced = channel.engine().rx_coalesced();
  return out;
}

TEST(BatchedPhyEquivalence, DenseCellRandomTraceBitIdentical) {
  const TraceRun a = run_trace(true);
  const TraceRun b = run_trace(false);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.deliveries, b.deliveries);
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t i = 0; i < a.traces.size(); ++i) {
    ASSERT_EQ(a.traces[i].size(), b.traces[i].size()) << "node " << i;
    for (std::size_t j = 0; j < a.traces[i].size(); ++j) {
      EXPECT_EQ(a.traces[i][j], b.traces[i][j])
          << "node " << i << " event " << j << ": " << a.traces[i][j].kind << "@"
          << a.traces[i][j].t_us << " vs " << b.traces[i][j].kind << "@"
          << b.traces[i][j].t_us;
    }
    EXPECT_EQ(a.counters[i].frames_sent, b.counters[i].frames_sent) << "node " << i;
    EXPECT_EQ(a.counters[i].frames_received, b.counters[i].frames_received)
        << "node " << i;
    EXPECT_EQ(a.counters[i].frames_corrupted, b.counters[i].frames_corrupted)
        << "node " << i;
    EXPECT_EQ(a.counters[i].frames_missed_while_tx, b.counters[i].frames_missed_while_tx)
        << "node " << i;
  }
  // The storm must actually exercise the batched machinery: coalesced
  // multi-receiver sweeps and analytically elided doomed receptions.
  EXPECT_GT(a.rx_coalesced, 0u);
  EXPECT_GT(a.rx_elided, 0u);
  EXPECT_EQ(b.rx_elided, 0u);
  EXPECT_EQ(b.rx_coalesced, 0u);
}

}  // namespace
}  // namespace ag::phy
