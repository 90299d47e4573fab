#include "mac/csma_mac.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ag::mac {

CsmaMac::CsmaMac(sim::Simulator& sim, phy::Radio& radio, const phy::Channel& channel,
                 net::NodeId self, MacParams params, sim::Rng rng)
    : sim_{sim},
      radio_{radio},
      channel_{channel},
      self_{self},
      rng_{rng},
      cw_{kCwMin},
      ack_timer_{sim, [this] { on_ack_timeout(); }, sim::EventCategory::mac_ack_timeout} {
  // Mirror of the channel's per-receiver delay quantization
  // (floor(d/c) + 1 us, d <= transmission range).
  const auto max_propagation = sim::Duration::us(
      static_cast<std::int64_t>(channel.params().transmission_range_m /
                                phy::kPropagationMps * 1e6) +
      1);
  auto done = [this] { start_transmission(); };
  countdown_ = params.countdown != nullptr
                   ? params.countdown(sim, max_propagation, done)
                   : std::make_unique<FusedCountdown>(sim, max_propagation, done);
  radio_.set_listener(this);
}

bool CsmaMac::send(net::NodeId mac_dst, net::PacketPtr packet) {
  if (queue_.size() >= kQueueLimit) {
    ++counters_.queue_drops;
    return false;
  }
  queue_.push_back(Outgoing{mac_dst, std::move(packet)});
  if (state_ == State::idle) begin_access();
  return true;
}

void CsmaMac::power_cycle() {
  countdown_->reset();
  ack_timer_.cancel();
  queue_.clear();
  last_rx_seq_.clear();
  retries_ = 0;
  cw_ = kCwMin;
  // A frame already on the air completes through the tx_ack path of
  // on_transmit_complete, which touches no queue state; everything else
  // returns straight to idle.
  state_ = radio_.transmitting() ? State::tx_ack : State::idle;
}

void CsmaMac::begin_access() {
  assert(!queue_.empty());
  state_ = State::contending;
  retries_ = 0;
  cw_ = kCwMin;
  // DCF rule: transmit after DIFS only if the medium was already idle when
  // the frame arrived; otherwise draw a random backoff. Without this,
  // every node that heard the same broadcast would retransmit in the same
  // slot and collide (the classic synchronized-forwarders storm).
  if (radio_.medium_busy() || radio_.idle_for() < kDifs) {
    draw_backoff();
  } else {
    countdown_->set_slots(0);
  }
  resume_contention();
}

void CsmaMac::resume_contention() {
  if (radio_.medium_busy()) return;  // on_medium_idle will call us again
  // Idle time already elapsed counts toward the DIFS wait.
  if (countdown_->resume(radio_.idle_for())) start_transmission();
}

void CsmaMac::start_transmission() {
  assert(state_ == State::contending);
  assert(!radio_.transmitting());
  const Outgoing& out = queue_.front();
  const Frame frame{FrameKind::data, self_, out.dst, next_mac_seq_, out.packet};
  state_ = State::tx_data;
  if (out.dst.is_broadcast()) {
    ++counters_.broadcast_sent;
  } else {
    ++counters_.unicast_sent;
    if (retries_ > 0) ++counters_.retries;
  }
  if (sniffer_ != nullptr) sniffer_->on_frame_transmitted(frame);
  radio_.transmit(frame);
}

void CsmaMac::on_transmit_complete() {
  if (state_ == State::tx_ack) {
    // ACK finished; resume whatever we were doing. on_medium_idle triggers
    // resume_contention when the air clears.
    state_ = queue_.empty() ? State::idle : State::contending;
    if (state_ == State::contending) resume_contention();
    return;
  }
  if (state_ != State::tx_data) return;
  const Outgoing& out = queue_.front();
  if (out.dst.is_broadcast()) {
    transmission_succeeded();
    return;
  }
  // Unicast: wait for the ACK. Timeout covers SIFS + ACK airtime + slack.
  state_ = State::awaiting_ack;
  const Frame ack{FrameKind::ack, out.dst, self_, 0, {}};
  const sim::Duration timeout =
      kSifs + channel_.airtime_of(ack) + kSlot * 3;
  ack_timer_.restart(timeout);
}

void CsmaMac::on_ack_timeout() {
  assert(state_ == State::awaiting_ack);
  ++retries_;
  if (retries_ > kRetryLimit) {
    ++counters_.unicast_failed;
    give_up_current();
    return;
  }
  cw_ = std::min(cw_ * 2 + 1, kCwMax);
  draw_backoff();
  state_ = State::contending;
  resume_contention();
}

void CsmaMac::transmission_succeeded() {
  ++next_mac_seq_;
  finish_current_and_continue();
}

void CsmaMac::give_up_current() {
  Outgoing out = std::move(queue_.front());
  ++next_mac_seq_;
  queue_.pop_front();
  state_ = queue_.empty() ? State::idle : State::contending;
  if (listener_ != nullptr) listener_->on_unicast_failed(*out.packet, out.dst);
  if (state_ == State::contending) {
    retries_ = 0;
    cw_ = kCwMin;
    draw_backoff();
    resume_contention();
  }
}

void CsmaMac::finish_current_and_continue() {
  queue_.pop_front();
  if (queue_.empty()) {
    state_ = State::idle;
    return;
  }
  state_ = State::contending;
  retries_ = 0;
  cw_ = kCwMin;
  // Post-transmission backoff decorrelates back-to-back senders.
  draw_backoff();
  resume_contention();
}

void CsmaMac::draw_backoff() {
  countdown_->set_slots(static_cast<std::uint32_t>(rng_.uniform_int(0, cw_)));
}

void CsmaMac::on_medium_busy() {
  if (state_ == State::contending) countdown_->pause();
}

void CsmaMac::on_medium_idle() {
  if (state_ == State::contending) resume_contention();
}

void CsmaMac::on_frame_received(const Frame& frame) {
  if (frame.kind == FrameKind::ack) {
    if (state_ == State::awaiting_ack && frame.mac_dst == self_ &&
        frame.mac_src == queue_.front().dst && frame.mac_seq == next_mac_seq_) {
      ack_timer_.cancel();
      transmission_succeeded();
    }
    return;
  }
  // Data frame. The sniffer tap fires before the destination filter and
  // rx dedup: promiscuous observation sees every decodable transmission,
  // exactly what a watchdog-style trust monitor needs.
  if (sniffer_ != nullptr) sniffer_->on_frame_overheard(frame);
  if (frame.mac_dst == self_) {
    send_ack(frame.mac_src, frame.mac_seq);
    auto [seq, fresh] = last_rx_seq_.try_emplace(frame.mac_src, frame.mac_seq);
    if (!fresh) {
      if (*seq == frame.mac_seq) {
        ++counters_.dup_frames_dropped;  // retransmission we already accepted
        return;
      }
      *seq = frame.mac_seq;
    }
  } else if (!frame.mac_dst.is_broadcast()) {
    return;  // unicast for somebody else
  }
  ++counters_.delivered_up;
  if (listener_ != nullptr) listener_->on_packet_received(*frame.packet, frame.mac_src);
}

void CsmaMac::send_ack(net::NodeId to, std::uint16_t seq) {
  sim_.schedule_after(
      kSifs,
      [this, to, seq] {
        if (radio_.transmitting()) {
          // Rare overlap: our own frame went on the air before the SIFS
          // expired. The ACK is silently lost and the sender will retry —
          // counted so the loss is visible instead of indistinguishable
          // from an ACK collision.
          ++counters_.acks_suppressed;
          return;
        }
        // While awaiting an ACK ourselves, transmit without disturbing that
        // state machine (on_transmit_complete ignores the completion).
        if (state_ == State::contending) {
          countdown_->pause();
          state_ = State::tx_ack;
        } else if (state_ == State::idle) {
          state_ = State::tx_ack;
        }
        ++counters_.acks_sent;
        radio_.transmit(Frame{FrameKind::ack, self_, to, seq, {}});
      },
      // Accounted under `other` since PR 5 introduced the event mix;
      // kept there explicitly so the mix stays comparable across PRs.
      sim::EventCategory::other);
}

}  // namespace ag::mac
