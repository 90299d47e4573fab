#include "mac/csma_mac.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mobility/static_mobility.h"
#include "phy/channel.h"
#include "phy/radio.h"
#include "reference/engines.h"
#include "sim/simulator.h"

namespace ag::mac {
namespace {

struct Received {
  net::Packet packet;
  net::NodeId from;
};

class RecordingRouting : public MacListener {
 public:
  void on_packet_received(const net::Packet& packet, net::NodeId from) override {
    received.push_back({packet, from});
  }
  void on_unicast_failed(const net::Packet& packet, net::NodeId next_hop) override {
    failed.push_back({packet, next_hop});
  }
  std::vector<Received> received;
  std::vector<Received> failed;
};

net::Packet hello_packet(std::uint32_t src) {
  net::Packet p;
  p.src = net::NodeId{src};
  p.payload = aodv::HelloMsg{net::NodeId{src}, net::SeqNo{1}};
  return p;
}

class MacFixture {
 public:
  explicit MacFixture(std::vector<mobility::Vec2> positions, double range = 100.0,
                      MacParams params = {})
      : mobility_{std::move(positions)},
        channel_{sim_, mobility_, phy::PhyParams{range}} {
    for (std::size_t i = 0; i < mobility_.node_count(); ++i) {
      radios_.push_back(std::make_unique<phy::Radio>(channel_, i));
      macs_.push_back(std::make_unique<CsmaMac>(
          sim_, *radios_.back(), channel_, net::NodeId{static_cast<std::uint32_t>(i)},
          params, sim_.rng().stream("mac", i)));
      listeners_.push_back(std::make_unique<RecordingRouting>());
      macs_.back()->set_listener(listeners_.back().get());
    }
  }
  sim::Simulator sim_;
  mobility::StaticMobility mobility_;
  phy::Channel channel_;
  std::vector<std::unique_ptr<phy::Radio>> radios_;
  std::vector<std::unique_ptr<CsmaMac>> macs_;
  std::vector<std::unique_ptr<RecordingRouting>> listeners_;
};

TEST(CsmaMac, BroadcastReachesAllNeighbors) {
  MacFixture f{{{0, 0}, {50, 0}, {90, 0}, {250, 0}}};
  f.macs_[0]->send(net::NodeId::broadcast(), hello_packet(0));
  f.sim_.run_all();
  EXPECT_EQ(f.listeners_[1]->received.size(), 1u);
  EXPECT_EQ(f.listeners_[2]->received.size(), 1u);
  EXPECT_EQ(f.listeners_[3]->received.size(), 0u);  // out of range
  EXPECT_EQ(f.macs_[0]->counters().broadcast_sent, 1u);
}

TEST(CsmaMac, UnicastDeliversOnlyToAddressee) {
  MacFixture f{{{0, 0}, {50, 0}, {60, 0}}};
  f.macs_[0]->send(net::NodeId{1}, hello_packet(0));
  f.sim_.run_all();
  EXPECT_EQ(f.listeners_[1]->received.size(), 1u);
  EXPECT_EQ(f.listeners_[1]->received[0].from, net::NodeId{0});
  EXPECT_EQ(f.listeners_[2]->received.size(), 0u);  // overheard but filtered
}

TEST(CsmaMac, UnicastIsAcknowledged) {
  MacFixture f{{{0, 0}, {50, 0}}};
  f.macs_[0]->send(net::NodeId{1}, hello_packet(0));
  f.sim_.run_all();
  EXPECT_EQ(f.macs_[1]->counters().acks_sent, 1u);
  EXPECT_EQ(f.macs_[0]->counters().unicast_failed, 0u);
  EXPECT_EQ(f.listeners_[0]->failed.size(), 0u);
}

TEST(CsmaMac, UnicastToUnreachableNodeFailsAfterRetries) {
  MacFixture f{{{0, 0}, {500, 0}}};  // out of range
  f.macs_[0]->send(net::NodeId{1}, hello_packet(0));
  f.sim_.run_all();
  ASSERT_EQ(f.listeners_[0]->failed.size(), 1u);
  EXPECT_EQ(f.listeners_[0]->failed[0].from, net::NodeId{1});  // next hop
  EXPECT_EQ(f.macs_[0]->counters().unicast_failed, 1u);
  EXPECT_EQ(f.macs_[0]->counters().retries, kRetryLimit);
}

TEST(CsmaMac, QueueDrainsInOrder) {
  MacFixture f{{{0, 0}, {50, 0}}};
  for (std::uint32_t i = 0; i < 5; ++i) {
    net::Packet p = hello_packet(0);
    p.ttl = static_cast<std::uint8_t>(i + 1);  // tag to check ordering
    f.macs_[0]->send(net::NodeId{1}, std::move(p));
  }
  f.sim_.run_all();
  ASSERT_EQ(f.listeners_[1]->received.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(f.listeners_[1]->received[i].packet.ttl, i + 1);
  }
}

TEST(CsmaMac, QueueOverflowDropsTail) {
  MacFixture f{{{0, 0}, {500, 0}}};  // unreachable: queue cannot drain fast
  const std::size_t limit = kQueueLimit;
  for (std::size_t i = 0; i < limit + 10; ++i) {
    f.macs_[0]->send(net::NodeId{1}, hello_packet(0));
  }
  EXPECT_EQ(f.macs_[0]->counters().queue_drops, 10u);
  EXPECT_EQ(f.macs_[0]->queue_depth(), limit);
}

TEST(CsmaMac, ContendersSerializeOnTheMedium) {
  // All three in mutual range: CSMA + random backoff should deliver all
  // broadcasts without loss.
  MacFixture f{{{0, 0}, {30, 0}, {60, 0}}};
  f.macs_[0]->send(net::NodeId::broadcast(), hello_packet(0));
  f.macs_[1]->send(net::NodeId::broadcast(), hello_packet(1));
  f.macs_[2]->send(net::NodeId::broadcast(), hello_packet(2));
  f.sim_.run_all();
  // Node 1 is in range of both others: should hear both their frames.
  EXPECT_EQ(f.listeners_[1]->received.size(), 2u);
}

TEST(CsmaMac, HiddenTerminalRetryEventuallyDelivers) {
  // 0 and 2 are hidden from each other, both unicast to 1 simultaneously.
  // First transmissions collide at 1; ACK-less senders back off and retry
  // until both get through.
  MacFixture f{{{0, 0}, {80, 0}, {160, 0}}, 100.0};
  f.macs_[0]->send(net::NodeId{1}, hello_packet(0));
  f.macs_[2]->send(net::NodeId{1}, hello_packet(2));
  f.sim_.run_all();
  EXPECT_EQ(f.listeners_[1]->received.size(), 2u);
  EXPECT_EQ(f.macs_[0]->counters().unicast_failed, 0u);
  EXPECT_EQ(f.macs_[2]->counters().unicast_failed, 0u);
  EXPECT_GT(f.macs_[0]->counters().retries + f.macs_[2]->counters().retries, 0u);
}

TEST(CsmaMac, DuplicateRetransmissionFilteredWhenAckLost) {
  // Drop every ACK from 1 to 0: the sender retries, receiver must deliver
  // the packet only once despite receiving several copies.
  MacFixture f{{{0, 0}, {50, 0}}};
  f.channel_.set_drop_hook([](std::size_t from, std::size_t to) {
    return from == 1 && to == 0;  // ACK direction
  });
  f.macs_[0]->send(net::NodeId{1}, hello_packet(0));
  f.sim_.run_all();
  EXPECT_EQ(f.listeners_[1]->received.size(), 1u);
  EXPECT_GT(f.macs_[1]->counters().dup_frames_dropped, 0u);
  // Sender exhausted retries (never saw an ACK).
  EXPECT_EQ(f.macs_[0]->counters().unicast_failed, 1u);
}

TEST(CsmaMac, BackToBackBroadcastsAllArrive) {
  MacFixture f{{{0, 0}, {50, 0}}};
  for (int i = 0; i < 20; ++i) {
    f.macs_[0]->send(net::NodeId::broadcast(), hello_packet(0));
  }
  f.sim_.run_all();
  EXPECT_EQ(f.listeners_[1]->received.size(), 20u);
}

TEST(CsmaMac, MixedTrafficUnderLoadDeliversAllUnicasts) {
  MacFixture f{{{0, 0}, {40, 0}, {80, 0}}};
  for (int i = 0; i < 10; ++i) {
    f.macs_[0]->send(net::NodeId{1}, hello_packet(0));
    f.macs_[1]->send(net::NodeId::broadcast(), hello_packet(1));
    f.macs_[2]->send(net::NodeId{1}, hello_packet(2));
  }
  f.sim_.run_all();
  // Unicasts are ACK-protected and must all arrive. Broadcasts are
  // fire-and-forget: a half-duplex receiver busy with its own frame can
  // legitimately miss some, so only a floor is asserted.
  EXPECT_EQ(f.macs_[0]->counters().unicast_failed, 0u);
  EXPECT_EQ(f.macs_[2]->counters().unicast_failed, 0u);
  EXPECT_GE(f.listeners_[1]->received.size(), 20u);
  EXPECT_LE(f.listeners_[1]->received.size(), 30u);
  EXPECT_GE(f.listeners_[0]->received.size() + f.listeners_[2]->received.size(), 10u);
}

TEST(CsmaMac, PowerCycleDropsQueueAndRecovers) {
  MacFixture f{{{0, 0}, {40, 0}}};
  for (int i = 0; i < 5; ++i) f.macs_[0]->send(net::NodeId{1}, hello_packet(0));
  EXPECT_GT(f.macs_[0]->queue_depth(), 0u);

  f.macs_[0]->power_cycle();
  EXPECT_EQ(f.macs_[0]->queue_depth(), 0u);
  f.sim_.run_all();  // any in-flight frame completes harmlessly
  const std::size_t delivered_before = f.listeners_[1]->received.size();
  EXPECT_LE(delivered_before, 1u);  // at most the frame already on the air

  // The MAC keeps working after the cycle.
  f.macs_[0]->send(net::NodeId{1}, hello_packet(0));
  f.sim_.run_all();
  EXPECT_EQ(f.listeners_[1]->received.size(), delivered_before + 1);
  EXPECT_EQ(f.macs_[0]->counters().unicast_failed, 0u);
}

TEST(CsmaMac, AckSuppressedWhenRadioTransmittingAtSifsExpiry) {
  // The receiver owes an ACK but its own frame is on the air when the
  // SIFS expires: the ACK is silently dropped (the sender retries) and
  // the drop must be counted, not invisible. The overlap cannot occur
  // with in-band timings (DIFS > SIFS), so the reception is injected
  // directly while node 1 is mid-transmission.
  MacFixture f{{{0, 0}, {50, 0}}};
  f.macs_[1]->send(net::NodeId::broadcast(), hello_packet(1));
  // Step until node 1's transmission starts (DIFS + drawn backoff).
  while (!f.radios_[1]->transmitting()) {
    f.sim_.run_until(f.sim_.now() + sim::Duration::us(10));
  }
  const Frame data{FrameKind::data, net::NodeId{0}, net::NodeId{1}, 0,
                   net::PacketPool::local().make(hello_packet(0))};
  f.macs_[1]->on_frame_received(data);  // schedules the ACK at now + SIFS
  // SIFS (10 us) expires well inside the frame airtime (hundreds of us).
  f.sim_.run_all();
  EXPECT_EQ(f.macs_[1]->counters().acks_suppressed, 1u);
  EXPECT_EQ(f.macs_[1]->counters().acks_sent, 0u);
  EXPECT_EQ(f.macs_[1]->counters().delivered_up, 1u);  // data still went up
}

TEST(CsmaMac, BatchedPowerCycleMidCountdownDoesNotFireStaleDeadline) {
  // A crash landing between DIFS completion and the fused deadline must
  // cancel the pending analytic countdown: nothing may transmit at the
  // stale deadline, and a fresh send afterwards contends from scratch.
  ASSERT_TRUE(batched_backoff_enabled());  // default engine
  MacFixture f{{{0, 0}, {50, 0}}};
  f.macs_[0]->send(net::NodeId::broadcast(), hello_packet(0));
  // Mid-countdown: past begin_access, before any transmission (the
  // earliest possible deadline is DIFS = 50 us).
  f.sim_.run_until(f.sim_.now() + sim::Duration::us(30));
  ASSERT_EQ(f.macs_[0]->counters().broadcast_sent, 0u);
  f.macs_[0]->power_cycle();
  f.sim_.run_all();
  EXPECT_EQ(f.macs_[0]->counters().broadcast_sent, 0u);
  EXPECT_EQ(f.listeners_[1]->received.size(), 0u);
  // The MAC keeps working after the cycle.
  f.macs_[0]->send(net::NodeId::broadcast(), hello_packet(0));
  f.sim_.run_all();
  EXPECT_EQ(f.macs_[0]->counters().broadcast_sent, 1u);
  EXPECT_EQ(f.listeners_[1]->received.size(), 1u);
}

TEST(CsmaMac, AckArrivingAtTimeoutDeadlineBeatsTheTimer) {
  // An ACK reception event landing at exactly the timeout deadline fires
  // first (it was scheduled before the timeout was armed — FIFO order),
  // so the transmission succeeds with no retry. Real ACKs are dropped and
  // the deadline-grazing ACK is injected at the computed expiry.
  MacFixture f{{{0, 0}, {50, 0}}};
  f.channel_.set_drop_hook([](std::size_t from, std::size_t to) {
    return from == 1 && to == 0;  // ACK direction
  });
  f.macs_[0]->send(net::NodeId{1}, hello_packet(0));
  while (!f.radios_[0]->transmitting()) {
    f.sim_.run_until(f.sim_.now() + sim::Duration::us(10));
  }
  // Reconstruct the deadline from the MAC's own arithmetic: data airtime
  // (tx just started), then SIFS + ACK airtime + 3 slots.
  const Frame data{FrameKind::data, net::NodeId{0}, net::NodeId{1}, 0,
                   net::PacketPool::local().make(hello_packet(0))};
  const Frame ack{FrameKind::ack, net::NodeId{1}, net::NodeId{0}, 0, {}};
  const sim::SimTime deadline = f.sim_.now() + f.channel_.airtime_of(data) + kSifs +
                                f.channel_.airtime_of(ack) + kSlot * 3;
  // Scheduled now — before the MAC arms the timeout at tx completion —
  // so at the shared deadline this event pops first.
  f.sim_.schedule_at(deadline, [&f, ack] { f.macs_[0]->on_frame_received(ack); });
  f.sim_.run_all();
  EXPECT_EQ(f.macs_[0]->counters().retries, 0u);
  EXPECT_EQ(f.macs_[0]->counters().unicast_failed, 0u);
  EXPECT_EQ(f.macs_[0]->queue_depth(), 0u);
}

TEST(CsmaMac, StaleAckJustAfterTimeoutIsIgnoredAndRetryProceeds) {
  // The mirror ordering: the timeout fires first (same microsecond, the
  // ACK injection is scheduled after the timer was armed, so it pops
  // second). The stale ACK must be ignored — the MAC is already
  // contending for the retry — and the retransmission must succeed via
  // the receiver's real ACK, with the duplicate filtered.
  MacFixture f{{{0, 0}, {50, 0}}};
  int acks_dropped = 0;
  f.channel_.set_drop_hook([&acks_dropped](std::size_t from, std::size_t to) {
    return from == 1 && to == 0 && acks_dropped++ < 1;  // first ACK only
  });
  f.macs_[0]->send(net::NodeId{1}, hello_packet(0));
  while (!f.radios_[0]->transmitting()) {
    f.sim_.run_until(f.sim_.now() + sim::Duration::us(10));
  }
  const Frame data{FrameKind::data, net::NodeId{0}, net::NodeId{1}, 0,
                   net::PacketPool::local().make(hello_packet(0))};
  const Frame ack{FrameKind::ack, net::NodeId{1}, net::NodeId{0}, 0, {}};
  const sim::SimTime tx_end = f.sim_.now() + f.channel_.airtime_of(data);
  const sim::SimTime deadline = tx_end + kSifs + f.channel_.airtime_of(ack) + kSlot * 3;
  // Run past tx completion so the MAC has armed the ACK timeout, then
  // schedule the stale ACK at the very same deadline (larger seq ⇒ the
  // timeout pops first).
  f.sim_.run_until(tx_end);
  f.sim_.schedule_at(deadline, [&f, ack] { f.macs_[0]->on_frame_received(ack); });
  f.sim_.run_all();
  EXPECT_EQ(f.macs_[0]->counters().retries, 1u);
  EXPECT_EQ(f.macs_[0]->counters().unicast_failed, 0u);
  EXPECT_EQ(f.listeners_[1]->received.size(), 1u);
  EXPECT_EQ(f.macs_[1]->counters().dup_frames_dropped, 1u);
  EXPECT_EQ(f.macs_[0]->queue_depth(), 0u);
}

TEST(CsmaMac, BackoffSlotsCreditedMatchesAcrossEngines) {
  // The analytic credit arithmetic consumes exactly the slots the
  // per-slot tick chain does, on a contended cell where pauses interrupt
  // countdowns constantly.
  std::uint64_t credited[2] = {0, 0};
  std::uint64_t sent[2] = {0, 0};
  for (const bool batched : {true, false}) {
    MacParams params;
    if (!batched) params.countdown = &reference::per_slot_countdown;
    MacFixture f{{{0, 0}, {30, 0}, {60, 0}}, 100.0, params};
    for (int i = 0; i < 10; ++i) {
      f.macs_[0]->send(net::NodeId::broadcast(), hello_packet(0));
      f.macs_[1]->send(net::NodeId{0}, hello_packet(1));
      f.macs_[2]->send(net::NodeId::broadcast(), hello_packet(2));
    }
    f.sim_.run_all();
    for (const auto& mac : f.macs_) {
      credited[batched ? 0 : 1] += mac->countdown().counters().backoff_slots_credited;
      sent[batched ? 0 : 1] +=
          mac->counters().broadcast_sent + mac->counters().unicast_sent;
    }
  }
  EXPECT_EQ(credited[0], credited[1]);
  EXPECT_EQ(sent[0], sent[1]);
  EXPECT_GT(credited[0], 0u);
}

TEST(CsmaMac, PowerCycleMidTransmissionStaysConsistent) {
  MacFixture f{{{0, 0}, {40, 0}}};
  f.macs_[0]->send(net::NodeId{1}, hello_packet(0));
  f.macs_[0]->send(net::NodeId{1}, hello_packet(0));
  // Let contention start, then cycle while the state machine is active.
  f.sim_.run_until(f.sim_.now() + sim::Duration::us(500));
  f.macs_[0]->power_cycle();
  f.sim_.run_all();
  // Whatever was on the air completes; nothing dangles afterwards.
  f.macs_[0]->send(net::NodeId{1}, hello_packet(0));
  f.sim_.run_all();
  EXPECT_GE(f.listeners_[1]->received.size(), 1u);
  EXPECT_EQ(f.macs_[0]->queue_depth(), 0u);
}

}  // namespace
}  // namespace ag::mac
