// Batched phy delivery engine: one completion event per transmitted
// frame instead of one finish_reception event per (frame x receiver),
// with analytic elision of receptions that are already doomed and
// strictly outlived by the receiver's other on-air state. Radio state
// lives in flat per-node arrays (SoA, keyed like net::NodeTable) swept
// in ascending node order, so every listener callback
// (on_medium_busy / on_medium_idle / on_frame_received) fires in
// exactly the order a per-receiver engine (one finish event per
// reception) produces — full runs are bit-identical, only the simulator
// event counts differ.
//
// That per-receiver engine is the oracle: it lives in tests/reference/
// and the equivalence suites run it through PhyParams::engine. The
// elision accounting reconstructs its executed phy_delivery event count
// exactly:
//   per-receiver executed == batched executed + rx_elided + rx_coalesced.
//
// Why elision is sound only under a *strict* cover (end < busy_until):
// at equal end times the per-receiver engine fires the busy->idle
// transition inside the LAST same-end finish event, so dropping the
// doomed reception would move the on_medium_idle callback to an earlier
// same-timestamp event and shift every MAC timer seeded from it.
#ifndef AG_PHY_BATCHED_PHY_H
#define AG_PHY_BATCHED_PHY_H

#include <cassert>
#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "mac/frame.h"
#include "phy/phy_engine.h"
#include "sim/simulator.h"

namespace ag::phy {

class Channel;

class BatchedPhy final : public PhyEngine {
 public:
  BatchedPhy(sim::Simulator& sim, Channel& channel);

  // Grows the per-node arrays; called from Channel::attach in node order.
  void attach() override;

  // Radio::set_listener lands here — the hot notification paths read the
  // flat table instead of chasing a Radio pointer per state change.
  void set_listener(std::size_t node, RadioListener* listener) override {
    assert(node < listeners_.size() && "attach before set_listener");
    listeners_[node] = listener;
  }

  // --- Radio facade (state queries on the SoA table) ---
  [[nodiscard]] bool transmitting(std::size_t node) const override {
    return transmitting_[node] != 0;
  }
  [[nodiscard]] bool medium_busy(std::size_t node) const override {
    return transmitting_[node] != 0 || rx_count_[node] > 0;
  }
  [[nodiscard]] sim::Duration idle_for(std::size_t node) const override;
  [[nodiscard]] const RadioCounters& counters(std::size_t node) const override {
    return counters_[node];
  }

  // Corrupts in-flight receptions (half duplex), hands the frame to the
  // channel, schedules tx-complete. Schedule-call order is the channel's
  // arrival events, then the tx-complete event, as in a per-receiver
  // engine, so FIFO ties break identically.
  void transmit(std::size_t node, const mac::Frame& frame) override;

  // Crash support: corrupts every reception in progress without touching
  // collision counters. Entries stay tracked (their completion events
  // still drain rx_count_), as a per-receiver engine corrupts in place.
  void abort_receptions(std::size_t node) override { has_clean_[node] = 0; }

  // --- Channel delivery path ---
  // Processes one frame's receiver group: arrive() decides each
  // receiver, crediting collision counters and eliding strictly-covered
  // doomed receptions, and ONE completion event is scheduled for the
  // survivors (none when every reception was elided).
  void deliver_group(const std::shared_ptr<const mac::Frame>& frame, sim::SimTime end,
                     const std::vector<std::uint32_t>& rx) override;

  // --- elision accounting ---
  // Receptions resolved with no completion event ever scheduled, settled
  // against sim.now(): an elided end is credited once a per-receiver
  // engine's finish event would have executed, so the reconstruction
  // identity holds exactly even for frames in flight at the run cutoff.
  [[nodiscard]] std::uint64_t rx_elided() const override;
  // Live receivers beyond the first per completion event (L receivers
  // swept by one event = L-1 per-receiver finish events).
  [[nodiscard]] std::uint64_t rx_coalesced() const override { return rx_coalesced_; }

 private:
  // Arrival bookkeeping for one receiver, the one place the reception
  // rule is applied. Returns true when the reception must be tracked
  // (false: analytically elided).
  bool arrive(std::size_t node, const mac::Frame* frame_key, sim::SimTime end);
  // finish_reception equivalent for one receiver of `frame`.
  void complete_one(std::size_t node, const std::shared_ptr<const mac::Frame>& frame);
  // Busy-state transition notifications, specialized per call site (the
  // post-mutation busy verdict is statically known at each): notify_busy
  // after a mutation that left the node busy, settle_if_idle after one
  // that may have drained the last on-air state.
  void notify_busy(std::size_t node, bool was_busy);
  void settle_if_idle(std::size_t node);
  void settle_elided() const;

  sim::Simulator& sim_;
  Channel& channel_;
  std::vector<RadioListener*> listeners_;  // set through Radio::set_listener
  std::vector<RadioCounters> counters_;

  // SoA radio state, indexed by node. At most one in-flight reception
  // per node can be clean (any overlap corrupts all, no capture), so the
  // clean slot is a flag + the frame's identity; corrupt receptions need
  // no identity at all, only the count that keeps carrier sense busy.
  std::vector<std::uint8_t> transmitting_;
  std::vector<std::uint32_t> rx_count_;       // tracked receptions in flight
  std::vector<std::uint8_t> has_clean_;
  std::vector<const mac::Frame*> clean_frame_; // valid while has_clean_
  // High-water mark over tracked busy state (tx end + reception ends).
  // Exact while the node is busy; reset at every busy->idle transition
  // so a stale value can never justify an elision across an idle gap.
  std::vector<sim::SimTime> busy_until_;
  std::vector<sim::SimTime> idle_since_;      // valid while !medium_busy

  // Min-heap of (would-be finish time, count) for elided receptions,
  // drained into rx_elided_ as sim.now() passes each end.
  using ElidedEntry = std::pair<sim::SimTime, std::uint64_t>;
  mutable std::priority_queue<ElidedEntry, std::vector<ElidedEntry>,
                              std::greater<ElidedEntry>>
      elided_pending_;
  mutable std::uint64_t rx_elided_{0};
  std::uint64_t rx_coalesced_{0};
};

}  // namespace ag::phy

#endif  // AG_PHY_BATCHED_PHY_H
