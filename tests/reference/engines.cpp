#include "reference/engines.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "phy/channel.h"

namespace ag::reference {
namespace {

class PerReceiverPhy final : public phy::PhyEngine {
 public:
  PerReceiverPhy(sim::Simulator& sim, phy::Channel& channel) : sim_{sim}, channel_{channel} {}

  void attach() override { nodes_.emplace_back(); }
  void set_listener(std::size_t node, phy::RadioListener* l) override {
    assert(node < nodes_.size() && "attach before set_listener");
    nodes_[node].listener = l;
  }
  bool transmitting(std::size_t node) const override { return nodes_[node].transmitting; }
  bool medium_busy(std::size_t node) const override {
    return nodes_[node].transmitting || !nodes_[node].rx.empty();
  }
  sim::Duration idle_for(std::size_t node) const override {
    return medium_busy(node) ? sim::Duration::zero() : sim_.now() - nodes_[node].idle_since;
  }
  const phy::RadioCounters& counters(std::size_t node) const override {
    return nodes_[node].counters;
  }
  std::uint64_t rx_elided() const override { return 0; }
  std::uint64_t rx_coalesced() const override { return 0; }
  void abort_receptions(std::size_t node) override {
    for (Rx& rx : nodes_[node].rx) rx.corrupt = true;
  }

  void transmit(std::size_t node, const mac::Frame& frame) override {
    Node& n = nodes_[node];
    assert(!n.transmitting && "MAC must serialize transmissions");
    const bool was_busy = medium_busy(node);
    n.transmitting = true;
    // Half duplex: anything being received is destroyed.
    for (Rx& rx : n.rx) {
      if (!rx.corrupt) {
        rx.corrupt = true;
        ++n.counters.frames_missed_while_tx;
      }
    }
    ++n.counters.frames_sent;
    channel_.transmit(node, frame);
    sim_.schedule_after(
        channel_.airtime_of(frame),
        [this, node] {
          nodes_[node].transmitting = false;
          after_state_change(node, /*was_busy=*/true);
          if (nodes_[node].listener != nullptr) nodes_[node].listener->on_transmit_complete();
        },
        sim::EventCategory::phy_delivery);
    after_state_change(node, was_busy);
  }

  void deliver_group(const std::shared_ptr<const mac::Frame>& frame, sim::SimTime end,
                     const std::vector<std::uint32_t>& rx) override {
    for (const std::uint32_t node : rx) {
      if (channel_.is_node_down(node)) continue;  // crashed between send and first bit
      begin_reception(node, frame, end);
    }
  }

 private:
  struct Rx {
    std::shared_ptr<const mac::Frame> frame;
    sim::SimTime end;
    bool corrupt{false};
  };
  struct Node {
    phy::RadioListener* listener{nullptr};
    bool transmitting{false};
    std::vector<Rx> rx;       // receptions in progress
    sim::SimTime idle_since;  // valid while the medium is idle
    phy::RadioCounters counters;
  };

  void begin_reception(std::size_t node, std::shared_ptr<const mac::Frame> frame,
                       sim::SimTime end) {
    Node& n = nodes_[node];
    const bool was_busy = medium_busy(node);
    Rx rx{std::move(frame), end, /*corrupt=*/false};
    if (n.transmitting) {
      rx.corrupt = true;
      ++n.counters.frames_missed_while_tx;
    }
    if (!n.rx.empty()) {
      // Collision: the new frame and every overlapping one are lost.
      for (Rx& other : n.rx) {
        if (!other.corrupt) {
          other.corrupt = true;
          ++n.counters.frames_corrupted;
        }
      }
      if (!rx.corrupt) {
        rx.corrupt = true;
        ++n.counters.frames_corrupted;
      }
    }
    n.rx.push_back(std::move(rx));
    sim_.schedule_at(end, [this, node] { finish_reception(node); },
                     sim::EventCategory::phy_delivery);
    after_state_change(node, was_busy);
  }

  void finish_reception(std::size_t node) {
    // Receptions complete in arrival order only if airtimes are equal, so
    // find the entry whose end time is now.
    Node& n = nodes_[node];
    const auto it = std::find_if(n.rx.begin(), n.rx.end(),
                                 [&](const Rx& rx) { return rx.end <= sim_.now(); });
    assert(it != n.rx.end());
    const bool deliver = !it->corrupt;
    const std::shared_ptr<const mac::Frame> frame = std::move(it->frame);
    n.rx.erase(it);
    after_state_change(node, /*was_busy=*/true);
    if (deliver) {
      ++n.counters.frames_received;
      if (n.listener != nullptr) n.listener->on_frame_received(*frame);
    }
  }

  void after_state_change(std::size_t node, bool was_busy) {
    Node& n = nodes_[node];
    const bool busy = medium_busy(node);
    if (!busy) n.idle_since = sim_.now();
    if (n.listener == nullptr) return;
    if (busy && !was_busy) n.listener->on_medium_busy();
    if (!busy && was_busy) n.listener->on_medium_idle();
  }

  sim::Simulator& sim_;
  phy::Channel& channel_;
  std::vector<Node> nodes_;
};

class PerSlotCountdown final : public mac::Countdown {
 public:
  PerSlotCountdown(sim::Simulator& sim, std::function<void()> done)
      : Countdown{sim, std::move(done)} {}

  bool resume(sim::Duration idle) override {
    difs_done_ = idle >= mac::kDifs;
    if (!difs_done_) {
      timer_.restart(mac::kDifs - idle, sim::EventCategory::mac_difs);
    } else if (slots_ > 0) {
      timer_.restart(mac::kSlot, sim::EventCategory::mac_slot);
    }
    return difs_done_ && slots_ == 0;
  }
  void pause() override { timer_.cancel(); }

 private:
  // One event for the DIFS wait, then one per slot.
  void fire() override {
    if (difs_done_) {
      --slots_;
      ++counters_.backoff_slots_credited;
    }
    difs_done_ = true;
    if (slots_ == 0) {
      done_();
    } else {
      timer_.restart(mac::kSlot, sim::EventCategory::mac_slot);
    }
  }

  bool difs_done_{false};
};

}  // namespace

std::unique_ptr<phy::PhyEngine> per_receiver_phy(sim::Simulator& sim, phy::Channel& channel) {
  return std::make_unique<PerReceiverPhy>(sim, channel);
}

std::unique_ptr<mac::Countdown> per_slot_countdown(sim::Simulator& sim,
                                                   sim::Duration /*max_propagation*/,
                                                   std::function<void()> done) {
  return std::make_unique<PerSlotCountdown>(sim, std::move(done));
}

}  // namespace ag::reference
