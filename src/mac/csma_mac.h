// CSMA/CA MAC in the style of the 802.11 DCF: physical carrier sense,
// DIFS deference, slotted binary-exponential backoff that freezes while
// the medium is busy, positive ACK with retransmission for unicast, and
// unacknowledged single-shot broadcast. RTS/CTS and the NAV are omitted
// (64-byte data frames sit below any reasonable RTS threshold; see
// DESIGN.md). Failed unicasts surface as link-break feedback to routing.
//
// The DIFS + backoff wait runs on a mac::Countdown (mac/countdown.h): the
// event-elided FusedCountdown unless a test installs another through
// MacParams::countdown. The MAC draws the backoff slots from its own RNG
// stream, so the countdown choice never moves a draw.
#ifndef AG_MAC_CSMA_MAC_H
#define AG_MAC_CSMA_MAC_H

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>

#include "mac/countdown.h"
#include "mac/frame.h"
#include "mac/mac_params.h"
#include "net/data_plane.h"
#include "net/node_table.h"
#include "phy/channel.h"
#include "phy/radio.h"
#include "sim/rng.h"
#include "sim/timer.h"

namespace ag::mac {

// Engine-mode constant for bench/perf, which records it with every run:
// the fused countdown is the only production countdown.
[[nodiscard]] constexpr bool batched_backoff_enabled() { return true; }

// Implemented by the routing layer.
class MacListener {
 public:
  virtual ~MacListener() = default;
  virtual void on_packet_received(const net::Packet& packet, net::NodeId from) = 0;
  // Retry limit exhausted: the link to next_hop is considered broken.
  virtual void on_unicast_failed(const net::Packet& packet, net::NodeId next_hop) = 0;
};

// Promiscuous observation tap: every in-range data frame the radio
// decodes (including unicasts addressed to other nodes, before the
// destination filter and rx dedup) plus this MAC's own data
// transmissions. Pure observation — a sniffer cannot alter what the MAC
// delivers or sends. Null by default: the only cost to the hot path when
// unset is one predictable branch per data frame. The trust layer
// (faults::AdversaryRouter) is the one consumer.
class MacSniffer {
 public:
  virtual ~MacSniffer() = default;
  virtual void on_frame_overheard(const Frame& frame) = 0;
  virtual void on_frame_transmitted(const Frame& frame) = 0;
};

class CsmaMac final : public phy::RadioListener {
 public:
  CsmaMac(sim::Simulator& sim, phy::Radio& radio, const phy::Channel& channel,
          net::NodeId self, MacParams params, sim::Rng rng);

  void set_listener(MacListener* listener) { listener_ = listener; }
  void set_sniffer(MacSniffer* sniffer) { sniffer_ = sniffer; }

  // Queues a shared packet for `mac_dst` (a neighbor or broadcast()).
  // Returns false when the interface queue is full (packet dropped). The
  // same allocation flows through the queue, the frame, and the channel.
  bool send(net::NodeId mac_dst, net::PacketPtr packet);
  // Convenience for call sites holding a fresh packet by value: wraps it
  // in the thread-local pool.
  bool send(net::NodeId mac_dst, net::Packet packet) {
    return send(mac_dst, net::PacketPool::local().make(std::move(packet)));
  }

  // Crash support (FaultInjector): drops the interface queue and every
  // retransmission/backoff state, as a power-cycle would. A frame already
  // on the air finishes harmlessly.
  void power_cycle();

  [[nodiscard]] net::NodeId self() const { return self_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] sim::SimTime now() const { return sim_.now(); }

  struct Counters {
    std::uint64_t unicast_sent{0};
    std::uint64_t broadcast_sent{0};
    std::uint64_t acks_sent{0};
    // ACKs we owed but never radiated because our radio was mid-
    // transmission when the SIFS expired (the sender will retry).
    std::uint64_t acks_suppressed{0};
    std::uint64_t retries{0};
    std::uint64_t unicast_failed{0};
    std::uint64_t queue_drops{0};
    std::uint64_t delivered_up{0};
    std::uint64_t dup_frames_dropped{0};
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const Countdown& countdown() const { return *countdown_; }

  // RadioListener:
  void on_frame_received(const Frame& frame) override;
  void on_medium_busy() override;
  void on_medium_idle() override;
  void on_transmit_complete() override;

 private:
  enum class State : std::uint8_t {
    idle,          // queue empty
    contending,    // waiting for DIFS + backoff countdown
    tx_data,       // our data frame is on the air
    tx_ack,        // our ACK is on the air (contention paused)
    awaiting_ack,  // unicast sent, ACK timer running
  };

  struct Outgoing {
    net::NodeId dst;
    net::PacketPtr packet;
  };

  void begin_access();
  void resume_contention();
  void start_transmission();
  void on_ack_timeout();
  void transmission_succeeded();
  void give_up_current();
  void finish_current_and_continue();
  void draw_backoff();
  void send_ack(net::NodeId to, std::uint16_t seq);

  sim::Simulator& sim_;
  phy::Radio& radio_;
  const phy::Channel& channel_;
  net::NodeId self_;
  sim::Rng rng_;
  MacListener* listener_{nullptr};
  MacSniffer* sniffer_{nullptr};

  std::deque<Outgoing> queue_;
  State state_{State::idle};
  std::uint32_t cw_;
  std::uint32_t retries_{0};
  std::uint16_t next_mac_seq_{0};

  std::unique_ptr<Countdown> countdown_;
  sim::Timer ack_timer_;

  // Last mac_seq accepted per neighbor: drops MAC-level retransmission
  // duplicates (data received, ACK lost, sender retried).
  net::NodeTable<std::uint16_t> last_rx_seq_;

  Counters counters_;
};

}  // namespace ag::mac

#endif  // AG_MAC_CSMA_MAC_H
