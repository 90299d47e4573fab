#include "dtn/custody_router.h"

namespace ag::dtn {

namespace {

std::uint32_t scaled_budget(std::uint32_t budget, bool gateway) {
  // Gateways hold more (they bridge partitions); a zero budget stays zero
  // so the armed-but-empty configuration is gateway-independent.
  if (!gateway || budget == 0) return budget;
  const std::uint64_t scaled = static_cast<std::uint64_t>(budget) * kGatewayBudgetFactor;
  return scaled > 0xFFFFFFFFull ? 0xFFFFFFFFu : static_cast<std::uint32_t>(scaled);
}

}  // namespace

CustodyRouter::CustodyRouter(sim::Simulator& sim, mac::CsmaMac& mac,
                             std::unique_ptr<harness::MulticastRouter> inner,
                             const CustodyParams& params, bool gateway)
    : RouterDecorator{mac, std::move(inner)},
      sim_{sim},
      mac_{mac},
      gateway_{gateway},
      store_{scaled_budget(params.max_messages, gateway), scaled_budget(kMaxBytes, gateway),
             kCustodyTtl} {}

std::uint32_t CustodyRouter::send_multicast(net::GroupId group,
                                            std::uint16_t payload_bytes) {
  const std::uint32_t seq = RouterDecorator::send_multicast(group, payload_bytes);
  // The origin seeds its own custody: if the network is partitioned right
  // now, the payload still reaches the far side on a later contact.
  net::MulticastData d;
  d.group = group;
  d.origin = self();
  d.seq = seq;
  d.payload_bytes = payload_bytes;
  d.sent_at = sim_.now();
  d.hops = 0;
  seen_.insert(net::msg_key(net::MsgId{d.origin, d.seq}));
  store_.store(d, sim_.now());
  return seq;
}

void CustodyRouter::on_multicast_data(const net::MulticastData& data,
                                      net::NodeId from) {
  // Tap every unique protocol delivery into custody, then pass it up
  // unchanged (the gossip agent stays the router's logical observer).
  seen_.insert(net::msg_key(net::MsgId{data.origin, data.seq}));
  store_.store(data, sim_.now());
  RouterDecorator::on_multicast_data(data, from);
}

void CustodyRouter::on_packet_received(const net::Packet& packet, net::NodeId from) {
  const auto* handoff = packet.get_if<CustodyHandoffMsg>();
  if (handoff == nullptr) {
    RouterDecorator::on_packet_received(packet, from);
    return;
  }
  const net::MulticastData& d = handoff->data;
  if (seen_.insert(net::msg_key(net::MsgId{d.origin, d.seq}))) {
    ++counters_.accepted_fresh;
  } else {
    ++counters_.accepted_duplicate;
  }
  // Take custody ourselves (store dedups), so payloads keep diffusing
  // through intermittently connected relays.
  store_.store(d, sim_.now());
  // Deliver up when we are a member. The gossip agent and (under faults)
  // the sink's MsgId set both deduplicate, so a re-offer after a reboot
  // can never double-count.
  if (is_member(d.group)) RouterDecorator::on_multicast_data(d, from);
}

void CustodyRouter::on_unicast_failed(const net::Packet& packet,
                                      net::NodeId next_hop) {
  if (packet.is<CustodyHandoffMsg>()) {
    // The payload stays under custody; a later contact retries. The inner
    // protocol never sent this frame, so it gets no link-break signal.
    ++counters_.offers_failed;
    return;
  }
  RouterDecorator::on_unicast_failed(packet, next_hop);
}

void CustodyRouter::offer_to(net::NodeId peer) {
  if (peer == self()) return;
  offer_scratch_.clear();
  store_.collect_oldest(sim_.now(), kOfferBatch, offer_scratch_);
  for (const net::MulticastData& d : offer_scratch_) {
    net::Packet pkt;
    pkt.src = self();
    pkt.dst = peer;
    pkt.ttl = 1;  // handoffs are strictly one-hop; relaying is a new offer
    pkt.payload = CustodyHandoffMsg{d, static_cast<std::uint8_t>(gateway_ ? 1 : 0)};
    if (mac_.send(peer, std::move(pkt))) {
      ++counters_.offers_sent;
    } else {
      ++counters_.offers_failed;  // interface queue full; retry on next contact
    }
  }
}

void CustodyRouter::add_totals(stats::NetworkTotals& totals) const {
  const CustodyStore::Counters& s = store_.counters();
  totals.custody_stored += s.stored;
  totals.custody_evicted_ttl += s.evicted_ttl;
  totals.custody_evicted_capacity += s.evicted_capacity;
  totals.custody_offers += counters_.offers_sent;
  totals.custody_offers_failed += counters_.offers_failed;
  totals.custody_accepted += counters_.accepted_fresh;
  totals.custody_duplicates += counters_.accepted_duplicate;
  RouterDecorator::add_totals(totals);
}

}  // namespace ag::dtn
