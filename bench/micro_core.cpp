// Micro-benchmarks (google-benchmark) for the simulator's hot paths: the
// event queue, RNG streams, gossip bookkeeping tables and the end-to-end
// events-per-second rate of a full protocol stack.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "gossip/history_table.h"
#include "gossip/lost_table.h"
#include "gossip/member_cache.h"
#include "harness/network.h"
#include "harness/scenario.h"
#include "mac/csma_mac.h"
#include "mobility/static_mobility.h"
#include "phy/channel.h"
#include "phy/radio.h"
#include "reference/engines.h"
#include "sim/event_category.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace {

using namespace ag;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::int64_t i = 0; i < n; ++i) {
      q.schedule(sim::SimTime::us(i * 7 % 1000), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1000)->Arg(10000);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(q.schedule(sim::SimTime::us(i), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueCancelHeavy);

void BM_SimulatorTimerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    std::function<void()> chain = [&] {
      if (++fired < 10000) {
        sim.schedule_after(sim::Duration::us(10), chain, sim::EventCategory::other);
      }
    };
    sim.schedule_after(sim::Duration::us(10), chain, sim::EventCategory::other);
    sim.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorTimerChurn);

void BM_RngWeightedIndex(benchmark::State& state) {
  sim::Rng rng{42};
  std::vector<double> weights{1.0, 0.25, 4.0, 0.0625, 1.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.weighted_index(weights));
  }
}
BENCHMARK(BM_RngWeightedIndex);

void BM_LostTableChurn(benchmark::State& state) {
  const net::NodeId origin{1};
  for (auto _ : state) {
    gossip::LostTable t{200};
    // Every third message missing, later recovered: the paper's workload.
    for (std::uint32_t s = 0; s < 2000; s += 3) {
      t.on_data({origin, s});
      t.on_data({origin, s + 1});
      // s+2 lost
    }
    for (std::uint32_t s = 2; s < 600; s += 3) t.on_data({origin, s});
    benchmark::DoNotOptimize(t.size());
  }
}
BENCHMARK(BM_LostTableChurn);

void BM_HistoryTableLookup(benchmark::State& state) {
  gossip::HistoryTable h{100};
  net::MulticastData d;
  d.origin = net::NodeId{1};
  for (std::uint32_t s = 0; s < 100; ++s) {
    d.seq = s;
    h.push(d);
  }
  std::uint32_t s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.find({net::NodeId{1}, s++ % 150}));
  }
}
BENCHMARK(BM_HistoryTableLookup);

void BM_MemberCacheObserve(benchmark::State& state) {
  sim::Rng rng{7};
  gossip::MemberCache cache{10};
  std::uint32_t n = 0;
  for (auto _ : state) {
    ++n;
    cache.observe(net::NodeId{n % 40}, static_cast<std::uint16_t>(1 + n % 6),
                  sim::SimTime::us(static_cast<std::int64_t>(n)));
    benchmark::DoNotOptimize(cache.pick_random(rng));
  }
}
BENCHMARK(BM_MemberCacheObserve);

// What saturated-cell runs did, summed.
struct CellRun {
  std::uint64_t events{0};
  std::uint64_t delivered{0};
  std::uint64_t mac_slot_events{0};
  std::uint64_t rx_elided{0};
  std::uint64_t rx_coalesced{0};
};

// Nodes at `positions`, all in mutual range, every interface queue
// stuffed with `frames` broadcasts, run to completion; adds what the run
// did to `total`.
void run_saturated_cell(std::vector<mobility::Vec2> positions, int frames,
                        const phy::PhyParams& phy_params, const mac::MacParams& mac_params,
                        CellRun& total) {
  sim::Simulator sim;
  mobility::StaticMobility mobility{std::move(positions)};
  phy::Channel channel{sim, mobility, phy_params};
  std::vector<std::unique_ptr<phy::Radio>> radios;
  std::vector<std::unique_ptr<mac::CsmaMac>> macs;
  for (std::size_t i = 0; i < mobility.node_count(); ++i) {
    radios.push_back(std::make_unique<phy::Radio>(channel, i));
    macs.push_back(std::make_unique<mac::CsmaMac>(
        sim, *radios.back(), channel, net::NodeId{static_cast<std::uint32_t>(i)},
        mac_params, sim.rng().stream("mac", i)));
  }
  for (int f = 0; f < frames; ++f) {
    for (auto& m : macs) {
      net::Packet p;
      p.src = m->self();
      p.payload = aodv::HelloMsg{m->self(), net::SeqNo{1}};
      m->send(net::NodeId::broadcast(), std::move(p));
    }
  }
  sim.run_all();
  total.events += sim.executed_events();
  total.mac_slot_events +=
      sim.event_mix().executed[sim::category_index(sim::EventCategory::mac_slot)];
  total.rx_elided += channel.engine().rx_elided();
  total.rx_coalesced += channel.engine().rx_coalesced();
  for (auto& m : macs) total.delivered += m->counters().delivered_up;
}

// Saturated single-cell contention: every node in mutual range, every
// interface queue stuffed with broadcasts, so the run is pure CSMA
// contention — the isolation bench for the analytic backoff countdown.
// Reports events per delivered frame (the elision metric: the per-slot
// machine burns a tick event per backoff slot, the batched engine one
// fused deadline per countdown) and the mac_slot share of all events.
// Arg(1) = fused analytic countdown (production), Arg(0) = the per-slot
// oracle countdown from tests/reference/.
void BM_SaturatedCellContention(benchmark::State& state) {
  mac::MacParams params;
  if (state.range(0) == 0) params.countdown = &reference::per_slot_countdown;
  std::vector<mobility::Vec2> positions;
  for (std::size_t i = 0; i < 10; ++i) positions.push_back({static_cast<double>(i) * 5.0, 0.0});
  CellRun t;
  for (auto _ : state) {
    run_saturated_cell(positions, 40, phy::PhyParams{100.0}, params, t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(t.events));
  if (t.delivered > 0) {
    state.counters["events_per_delivered_frame"] =
        static_cast<double>(t.events) / static_cast<double>(t.delivered);
  }
  if (t.events > 0) {
    state.counters["mac_slot_share"] =
        static_cast<double>(t.mac_slot_events) / static_cast<double>(t.events);
  }
}
BENCHMARK(BM_SaturatedCellContention)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// Dense-cell delivery storm: every node in mutual range, every queue
// stuffed with broadcasts — each transmission fans out to n-1 receivers,
// so the per-receiver engine executes one finish event per (frame,
// receiver) pair while the batched engine sweeps each group with one
// completion event and elides doomed receptions outright. The isolation
// bench for phy::BatchedPhy. Reports events per delivered frame plus the
// elided/coalesced reception split. Arg(1) = batched delivery engine
// (production), Arg(0) = the per-receiver oracle engine from
// tests/reference/.
void BM_DenseCellDeliveryStorm(benchmark::State& state) {
  phy::PhyParams params{100.0};
  if (state.range(0) == 0) params.engine = &reference::per_receiver_phy;
  std::vector<mobility::Vec2> positions;
  for (std::size_t i = 0; i < 24; ++i) {
    positions.push_back({static_cast<double>(i % 6) * 8.0, static_cast<double>(i / 6) * 8.0});
  }
  CellRun t;
  for (auto _ : state) run_saturated_cell(positions, 30, params, mac::MacParams{}, t);
  state.SetItemsProcessed(static_cast<std::int64_t>(t.events));
  if (t.delivered > 0) {
    state.counters["events_per_delivered_frame"] =
        static_cast<double>(t.events) / static_cast<double>(t.delivered);
  }
  if (t.events > 0) {
    const auto represented = static_cast<double>(t.events + t.rx_elided + t.rx_coalesced);
    state.counters["phy_rx_elided_share"] = static_cast<double>(t.rx_elided) / represented;
    state.counters["phy_rx_coalesced_share"] = static_cast<double>(t.rx_coalesced) / represented;
  }
}
BENCHMARK(BM_DenseCellDeliveryStorm)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// Whole-stack throughput: a complete 40-node scenario, measured in
// simulated events per second of wall clock.
void BM_FullScenarioEventsPerSecond(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    harness::ScenarioConfig c;
    c.seed = 11;
    c.duration = sim::SimTime::seconds(30.0);
    c.workload.start = sim::SimTime::seconds(10.0);
    c.workload.end = sim::SimTime::seconds(25.0);
    c.with_protocol(harness::Protocol::maodv_gossip);
    harness::Network net{c};
    net.run();
    events += net.simulator().executed_events();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_FullScenarioEventsPerSecond)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
