#include "faults/adversary.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <variant>

#include "net/data.h"
#include "stats/run_result.h"

namespace ag::faults {

AdversaryRouter::AdversaryRouter(sim::Simulator& sim, mac::CsmaMac& mac,
                                 std::unique_ptr<harness::MulticastRouter> inner,
                                 Role role, const TrustParams& trust,
                                 bool expect_all_relays, sim::Rng drop_rng)
    : RouterDecorator{mac, std::move(inner)},
      sim_{sim},
      role_{role},
      trust_{trust},
      monitor_{trust.enabled && !role.adversarial},
      watchdog_{trust.enabled && trust.watchdog && !role.adversarial &&
                expect_all_relays},
      drop_rng_{std::move(drop_rng)} {
  // The promiscuous tap costs one branch per frame network-wide, so it is
  // registered only where the forwarding watchdog can actually use it.
  if (watchdog_) mac.set_sniffer(this);
}

void AdversaryRouter::reset() {
  RouterDecorator::reset();
  // A power-cycle forgets who it distrusted: trust is volatile state,
  // unlike the custody store or the data-plane sequence counters.
  trust_table_.clear();
  seen_.clear();
  requested_.clear();
  relay_seen_.clear();
  drop_decided_.clear();
  drop_absorbed_.clear();
  isolation_log_.clear();
}

bool AdversaryRouter::is_isolated(net::NodeId neighbor) const {
  const NeighborTrust* t = trust_table_.find(neighbor);
  return t != nullptr && t->isolated;
}

// --- adversarial behaviors -------------------------------------------------

bool AdversaryRouter::absorbs(const net::Packet& packet) {
  // Everything the node was trusted to relay for others: application data
  // and the gossip replies that ride hop-by-hop unicasts. Control traffic
  // (walks, route discovery, tree maintenance) passes — the node keeps
  // signaling, so routes keep running through it.
  net::MsgId id;
  if (const auto* data = packet.get_if<net::MulticastData>()) {
    id = net::MsgId{data->origin, data->seq};
  } else if (const auto* reply = packet.get_if<gossip::GossipReplyMsg>()) {
    id = net::MsgId{reply->data.origin, reply->data.seq};
  } else {
    return false;
  }
  switch (role_.mode) {
    case AdversaryMode::blackhole:
      break;
    case AdversaryMode::selective_forward: {
      // The verdict is per message, not per frame: a flood delivers many
      // copies of one packet, and a fresh coin per copy would let it
      // through with probability 1 - drop^k — a node that barely
      // misbehaves under exactly the redundancy it is meant to attack.
      // Deciding once and remembering pins the effective forwarding rate
      // at 1 - drop_fraction. A gossip reply shares its message's
      // verdict: the node consistently pretends it never held it.
      const std::uint64_t key = net::msg_key(id);
      if (drop_decided_.insert(key) && drop_rng_.bernoulli(role_.drop_fraction)) {
        drop_absorbed_.insert(key);
      }
      if (!drop_absorbed_.contains(key)) return false;
      break;
    }
    case AdversaryMode::gossip_poison:
      return false;  // relays honestly; the damage is in its fabricated replies
  }
  ++counters_.data_absorbed;
  return true;
}

void AdversaryRouter::poison(const gossip::GossipMsg& msg, net::NodeId from) {
  if (!msg.pull) {
    // Push round: nothing to answer. Eat the pushed payloads instead of
    // letting the agent store them.
    ++counters_.poison_swallowed;
    return;
  }
  // Look interested: install the reverse-path hint exactly like an honest
  // acceptor would, so the junk reply can route back to the initiator.
  RouterDecorator::route_hint(msg.initiator, from,
                             std::max<std::uint8_t>(msg.hops_walked, 1));
  for (const gossip::SenderExpectation& exp : msg.expected) {
    // Fabricate a message the initiator already holds: a seq below its
    // expectation that is NOT in the lost buffer. A seq from the lost
    // buffer would genuinely recover the message (payloads carry no
    // content in the simulation), which is the opposite of poisoning.
    const std::uint32_t back_limit = std::min<std::uint32_t>(exp.expected_seq, 8);
    for (std::uint32_t back = 1; back <= back_limit; ++back) {
      const std::uint32_t seq = exp.expected_seq - back;
      bool genuinely_lost = false;
      for (const net::MsgId& lost : msg.lost) {
        if (lost.origin == exp.sender && lost.seq == seq) {
          genuinely_lost = true;
          break;
        }
      }
      if (genuinely_lost) continue;
      gossip::GossipReplyMsg junk;
      junk.group = msg.group;
      junk.responder = self();
      junk.data.group = msg.group;
      junk.data.origin = exp.sender;
      junk.data.seq = seq;
      junk.data.payload_bytes = 64;
      junk.data.sent_at = sim_.now();
      junk.data.hops = 0;
      RouterDecorator::unicast(msg.initiator, net::Payload{std::move(junk)});
      ++counters_.poison_replies;
      return;
    }
  }
  // No fabricable duplicate (the initiator expects nothing yet, or lost
  // everything recent): consume the round silently.
  ++counters_.poison_swallowed;
}

// --- trust bookkeeping -----------------------------------------------------

AdversaryRouter::NeighborTrust& AdversaryRouter::touch(net::NodeId neighbor,
                                                       sim::SimTime now) {
  auto [t, inserted] = trust_table_.try_emplace(neighbor, NeighborTrust{});
  if (inserted) t->last_decay = now;  // fresh entry: no mass to decay yet
  return *t;
}

void AdversaryRouter::decay(NeighborTrust& t, sim::SimTime now) const {
  const double dt = (now - t.last_decay).to_seconds();
  if (dt <= 0.0) return;
  t.last_decay = now;
  const double f = std::exp(-dt / kTrustDecayTauS);
  t.expected *= f;
  t.observed *= f;
  t.junk *= f;
  t.useful *= f;
}

void AdversaryRouter::isolate(net::NodeId neighbor, NeighborTrust& t,
                              sim::SimTime now) {
  t.isolated = true;  // permanent: re-admission is future work (ROADMAP)
  isolation_log_.push_back({neighbor, now});
}

void AdversaryRouter::watch_data_frame(const mac::Frame& frame, bool own,
                                       sim::SimTime now) {
  const auto* data = frame.packet->get_if<net::MulticastData>();
  if (data == nullptr) return;
  const std::uint64_t key = net::msg_key(net::MsgId{data->origin, data->seq});
  const bool first = relay_seen_.insert(key);
  if (!own) {
    // The transmitter just relayed (or originated) this packet. Crediting
    // per distinct (packet, transmitter) pair would need a product table;
    // per overheard frame is close enough — an honest relay broadcasts a
    // given packet once, so double credit only follows a MAC retry.
    NeighborTrust& src = touch(frame.mac_src, now);
    decay(src, now);
    src.observed += 1.0;
  }
  if (!first) return;
  // First appearance of this packet: every live neighbor (the transmitter
  // included — it already earned its observed credit above) owes exactly
  // one relay of it. Expectation mass therefore counts distinct packets,
  // not overheard frames, so it cannot be inflated by dense regimes where
  // one packet is rebroadcast by a dozen neighbors. A diligent relay sits
  // near ratio = P(we capture its one relay), a blackhole near zero, a
  // selective forwarder near (1 - drop_fraction) x capture.
  live_scratch_.clear();
  const net::NodeId me = self();
  trust_table_.for_each([&](net::NodeId id, NeighborTrust& t) {
    if (id == me) return;
    if ((now - t.last_heard).to_seconds() > kTrustNeighborTtlS) return;
    live_scratch_.push_back(id);
  });
  for (const net::NodeId id : live_scratch_) {
    NeighborTrust& t = *trust_table_.find(id);
    decay(t, now);
    t.expected += 1.0;
    if (!t.isolated && t.expected >= trust_.min_expected &&
        t.observed < trust_.forward_ratio_floor * t.expected) {
      isolate(id, t, now);
    }
  }
}

void AdversaryRouter::note_outgoing(const net::Payload& payload) {
  const auto* msg = std::get_if<gossip::GossipMsg>(&payload);
  if (msg == nullptr || !msg->pull || msg->initiator != self()) return;
  for (const net::MsgId& lost : msg->lost) requested_.insert(net::msg_key(lost));
}

void AdversaryRouter::score_reply(const gossip::GossipReplyMsg& reply,
                                  sim::SimTime now) {
  // Deliberately does NOT touch last_heard: the responder may be several
  // hops away, and marking it live would feed the forwarding watchdog
  // expectations for a node we cannot actually overhear.
  NeighborTrust& t = touch(reply.responder, now);
  decay(t, now);
  const std::uint64_t key =
      net::msg_key(net::MsgId{reply.data.origin, reply.data.seq});
  const bool fresh = seen_.insert(key);
  if (fresh || requested_.contains(key)) {
    // Anything we asked for stays legitimate however late it lands:
    // honest responders race, and the slower copy of a requested message
    // is a duplicate but not evidence of lying. Junk is specifically a
    // duplicate we never requested — the poisoner's signature, since it
    // fabricates seqs *outside* the pull's lost list on purpose.
    t.useful += 1.0;
    return;
  }
  t.junk += 1.0;
  if (!t.isolated && t.junk >= kTrustMinJunk &&
      t.junk >= kTrustJunkRatioFloor * (t.junk + t.useful)) {
    isolate(reply.responder, t, now);
  }
}

// --- MAC seam --------------------------------------------------------------

void AdversaryRouter::on_packet_received(const net::Packet& packet, net::NodeId from) {
  if (role_.adversarial && absorbs(packet)) return;
  if (monitor_ && is_isolated(from) && !packet.is<net::MulticastData>()) {
    // Refuse control traffic and gossip replies from a distrusted
    // neighbor — but never its data. Every adversary mode here absorbs
    // or fabricates; none corrupts payloads, so a data packet is good no
    // matter whose radio relayed it, and dropping it would punish the
    // network (and the monitor itself) rather than the adversary.
    ++counters_.ingress_dropped;
    return;
  }
  RouterDecorator::on_packet_received(packet, from);
}

// --- sniffer seam (watchdog monitors only) ---------------------------------

void AdversaryRouter::on_frame_overheard(const mac::Frame& frame) {
  const sim::SimTime now = sim_.now();
  NeighborTrust& src = touch(frame.mac_src, now);
  src.last_heard = now;
  if (frame.packet == nullptr) return;
  watch_data_frame(frame, /*own=*/false, now);
}

void AdversaryRouter::on_frame_transmitted(const mac::Frame& frame) {
  // Our own transmission: if it is the first appearance of a data packet
  // (we originated it, or our relay beat every copy we could overhear),
  // the live neighborhood owes us its relays.
  if (frame.packet == nullptr) return;
  watch_data_frame(frame, /*own=*/true, sim_.now());
}

// --- observer seam ---------------------------------------------------------

void AdversaryRouter::on_multicast_data(const net::MulticastData& data,
                                        net::NodeId from) {
  // Everything delivered up is something this node now holds — the
  // baseline the junk-reply classifier compares replies against.
  if (monitor_) seen_.insert(net::msg_key(net::MsgId{data.origin, data.seq}));
  RouterDecorator::on_multicast_data(data, from);
}

void AdversaryRouter::on_member_learned(net::GroupId group, net::NodeId member,
                                        std::uint8_t hops) {
  // Keep distrusted nodes out of the member cache: a gossip walk must not
  // be unicast straight to an isolated "member".
  if (monitor_ && is_isolated(member)) return;
  RouterDecorator::on_member_learned(group, member, hops);
}

void AdversaryRouter::on_gossip_packet(const net::Packet& packet, net::NodeId from) {
  if (role_.adversarial && role_.mode == AdversaryMode::gossip_poison) {
    if (const auto* msg = packet.get_if<gossip::GossipMsg>()) {
      poison(*msg, from);
      return;
    }
  }
  if (monitor_) {
    if (const auto* reply = packet.get_if<gossip::GossipReplyMsg>()) {
      score_reply(*reply, sim_.now());
      if (is_isolated(reply->responder)) {
        ++counters_.ingress_dropped;
        return;
      }
    }
  }
  RouterDecorator::on_gossip_packet(packet, from);
}

// --- adapter filtering (gossip peer selection, route replies) --------------

std::vector<net::NodeId> AdversaryRouter::tree_neighbors(net::GroupId group) const {
  std::vector<net::NodeId> v = RouterDecorator::tree_neighbors(group);
  if (monitor_ && !isolation_log_.empty()) {
    std::erase_if(v, [this](net::NodeId id) { return is_isolated(id); });
  }
  return v;
}

// Isolation deliberately does NOT hard-block egress. A relayed reply
// whose only route hint runs through a distrusted next hop is worth
// sending anyway: a selective forwarder still passes its kept slice,
// while refusing to send loses the packet with certainty — and when the
// isolation was a watchdog false positive, the "distrusted" hop would
// have relayed faithfully. Keeping traffic away from adversaries is the
// job of peer selection (tree_neighbors) and the member-cache filter,
// which choose among alternatives instead of destroying the last one.
void AdversaryRouter::unicast(net::NodeId dest, net::Payload payload) {
  if (monitor_ && is_isolated(dest)) ++counters_.egress_blocked;
  if (monitor_) note_outgoing(payload);
  RouterDecorator::unicast(dest, std::move(payload));
}

void AdversaryRouter::send_to_neighbor(net::NodeId neighbor, net::Payload payload) {
  if (monitor_ && is_isolated(neighbor)) ++counters_.egress_blocked;
  if (monitor_) note_outgoing(payload);
  RouterDecorator::send_to_neighbor(neighbor, std::move(payload));
}

// --- accounting ------------------------------------------------------------

void AdversaryRouter::add_totals(stats::NetworkTotals& totals) const {
  if (role_.adversarial) ++totals.adversary_nodes;
  totals.adversary_absorbed += counters_.data_absorbed;
  totals.adversary_poisoned += counters_.poison_replies + counters_.poison_swallowed;
  totals.trust_filtered +=
      counters_.ingress_dropped + counters_.egress_blocked;
  // Isolation / false-positive / latency stats need the ground-truth role
  // map, so harness::Network::result() computes them from isolation_log().
  RouterDecorator::add_totals(totals);
}

}  // namespace ag::faults
