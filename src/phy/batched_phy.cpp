#include "phy/batched_phy.h"

#include <cassert>

#include "phy/channel.h"

namespace ag::phy {

BatchedPhy::BatchedPhy(sim::Simulator& sim, Channel& channel)
    : sim_{sim}, channel_{channel} {}

void BatchedPhy::attach() {
  listeners_.push_back(nullptr);
  counters_.emplace_back();
  transmitting_.push_back(0);
  rx_count_.push_back(0);
  has_clean_.push_back(0);
  clean_frame_.push_back(nullptr);
  busy_until_.push_back(sim::SimTime::zero());
  idle_since_.push_back(sim::SimTime::zero());
}

sim::Duration BatchedPhy::idle_for(std::size_t node) const {
  if (medium_busy(node)) return sim::Duration::zero();
  return sim_.now() - idle_since_[node];
}

void BatchedPhy::transmit(std::size_t node, const mac::Frame& frame) {
  assert(transmitting_[node] == 0 && "MAC must serialize transmissions");
  const bool was_busy = medium_busy(node);
  transmitting_[node] = 1;
  // Half duplex: anything being received is destroyed. At most one
  // in-flight reception can be clean, so that flag is the whole loop.
  if (has_clean_[node] != 0) {
    has_clean_[node] = 0;
    ++counters_[node].frames_missed_while_tx;
  }
  ++counters_[node].frames_sent;
  // Schedule-call order: the channel's arrival events first, the
  // tx-complete event second.
  channel_.transmit(node, frame);
  const sim::Duration airtime = channel_.airtime_of(frame);
  const sim::SimTime tx_end = sim_.now() + airtime;
  if (tx_end > busy_until_[node]) busy_until_[node] = tx_end;
  sim_.schedule_after(
      airtime,
      [this, node] {
        transmitting_[node] = 0;
        settle_if_idle(node);
        RadioListener* l = listeners_[node];
        if (l != nullptr) l->on_transmit_complete();
      },
      sim::EventCategory::phy_delivery);
  notify_busy(node, was_busy);
}

bool BatchedPhy::arrive(std::size_t node, const mac::Frame* frame_key,
                        sim::SimTime end) {
  RadioCounters& counters = counters_[node];
  bool corrupt = false;
  if (transmitting_[node] != 0) {
    corrupt = true;
    ++counters.frames_missed_while_tx;
  }
  if (rx_count_[node] > 0) {
    // Collision: the new frame and every overlapping one are lost. Only
    // a clean overlapping frame changes state or counters.
    if (has_clean_[node] != 0) {
      has_clean_[node] = 0;
      ++counters.frames_corrupted;
    }
    if (!corrupt) {
      corrupt = true;
      ++counters.frames_corrupted;
    }
  }
  if (corrupt && end < busy_until_[node]) {
    // Doomed, and tracked state outlives it *strictly*: it can never
    // deliver, never extends carrier sense, and the busy->idle
    // transition belongs to the cover. Resolved with no event. (At
    // equal ends a per-receiver engine fires on_medium_idle in the last
    // same-end finish — this one — so equality must stay tracked.)
    // Stale busy_until_ components are always <= now (tracked items
    // leave the set exactly at their end), so only live state can
    // satisfy end < busy_until_.
    return false;
  }
  const bool was_busy = transmitting_[node] != 0 || rx_count_[node] > 0;
  ++rx_count_[node];
  if (end > busy_until_[node]) busy_until_[node] = end;
  if (!corrupt) {
    has_clean_[node] = 1;
    clean_frame_[node] = frame_key;
  }
  notify_busy(node, was_busy);  // rx_count_ > 0 now: the node is busy
  return true;
}

void BatchedPhy::complete_one(std::size_t node,
                              const std::shared_ptr<const mac::Frame>& frame) {
  // finish_reception, SoA form: the reception delivers iff it is the
  // node's clean slot (frame identity — every receiver of one
  // transmission shares the same allocation, and one transmission is
  // delivered at most once per node).
  const bool deliver = has_clean_[node] != 0 && clean_frame_[node] == frame.get();
  if (deliver) has_clean_[node] = 0;
  assert(rx_count_[node] > 0);
  --rx_count_[node];
  settle_if_idle(node);
  if (deliver) {
    ++counters_[node].frames_received;
    RadioListener* l = listeners_[node];
    if (l != nullptr) l->on_frame_received(*frame);
  }
}

void BatchedPhy::deliver_group(const std::shared_ptr<const mac::Frame>& frame,
                               sim::SimTime end, const std::vector<std::uint32_t>& rx) {
  settle_elided();
  const mac::Frame* key = frame.get();
  std::shared_ptr<std::vector<std::uint32_t>> live = channel_.acquire_rx_buf();
  std::uint64_t elided = 0;
  for (const std::uint32_t node : rx) {
    if (channel_.is_node_down(node)) continue;  // crashed before first bit
    if (arrive(node, key, end)) {
      live->push_back(node);
    } else {
      ++elided;
    }
  }
  if (elided > 0) elided_pending_.emplace(end, elided);
  if (live->empty()) return;  // fully elided: the frame needs no event at all
  sim_.schedule_at(
      end,
      [this, frame, live] {
        // Coalescing credit lands at execution time, exactly when the
        // per-receiver finish events would have executed — frames still
        // in flight at the run cutoff credit nothing, so the
        // executed-event reconstruction holds across cutoffs.
        rx_coalesced_ += live->size() - 1;
        for (const std::uint32_t node : *live) complete_one(node, frame);
      },
      sim::EventCategory::phy_delivery);
}

void BatchedPhy::notify_busy(std::size_t node, bool was_busy) {
  if (was_busy) return;  // no transition: the node was already busy
  RadioListener* l = listeners_[node];
  if (l != nullptr) l->on_medium_busy();
}

void BatchedPhy::settle_if_idle(std::size_t node) {
  if (transmitting_[node] != 0 || rx_count_[node] > 0) return;
  idle_since_[node] = sim_.now();
  // Every tracked contributor has ended; drop the high-water mark so
  // the strict-cover test never consults stale (<= now) state.
  busy_until_[node] = sim::SimTime::zero();
  RadioListener* l = listeners_[node];
  if (l != nullptr) l->on_medium_idle();
}

void BatchedPhy::settle_elided() const {
  const sim::SimTime now = sim_.now();
  while (!elided_pending_.empty() && elided_pending_.top().first <= now) {
    rx_elided_ += elided_pending_.top().second;
    elided_pending_.pop();
  }
}

std::uint64_t BatchedPhy::rx_elided() const {
  settle_elided();
  return rx_elided_;
}

}  // namespace ag::phy
