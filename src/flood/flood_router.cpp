#include "flood/flood_router.h"

namespace ag::flood {

FloodRouter::FloodRouter(mac::CsmaMac& mac, net::NodeId self, bool gossip_links)
    : mac_{mac}, self_{self}, gossip_links_{gossip_links} {
  mac_.set_listener(this);
}

void FloodRouter::join_group(net::GroupId group) {
  if (members_.insert(group) && observer_ != nullptr) {
    observer_->on_self_membership_changed(group, true);
  }
}

void FloodRouter::leave_group(net::GroupId group) {
  if (members_.erase(group) && observer_ != nullptr) {
    observer_->on_self_membership_changed(group, false);
  }
}

std::uint32_t FloodRouter::send_multicast(net::GroupId group, std::uint16_t payload_bytes) {
  const std::uint32_t seq = next_seq_[group]++;
  net::MulticastData data;
  data.group = group;
  data.origin = self_;
  data.seq = seq;
  data.payload_bytes = payload_bytes;
  data.sent_at = mac_.now();
  data.hops = 0;
  seen_.insert(net::MsgId{self_, seq});
  if (observer_ != nullptr) observer_->on_multicast_data(data, self_);
  net::Packet pkt;
  pkt.src = self_;
  pkt.dst = net::NodeId::broadcast();
  pkt.ttl = kDataTtl;
  pkt.payload = data;
  mac_.send(net::NodeId::broadcast(), std::move(pkt));
  return seq;
}

void FloodRouter::on_packet_received(const net::Packet& packet, net::NodeId from) {
  if (gossip_links_) {
    heard_[from] = mac_.now();
    if (!packet.is<net::MulticastData>()) {
      handle_gossip_traffic(packet, from);
      return;
    }
  }
  const auto* data = packet.get_if<net::MulticastData>();
  if (data == nullptr) return;
  if (!seen_.insert(net::MsgId{data->origin, data->seq})) {
    ++counters_.duplicates;
    return;
  }
  if (members_.contains(data->group)) {
    ++counters_.delivered;
    if (observer_ != nullptr) observer_->on_multicast_data(*data, from);
  }
  if (packet.ttl > 1) {
    net::Packet fwd = packet;
    fwd.ttl--;
    if (auto* d = fwd.get_if<net::MulticastData>()) d->hops++;
    ++counters_.rebroadcasts;
    mac_.send(net::NodeId::broadcast(), std::move(fwd));
  }
}

void FloodRouter::handle_gossip_traffic(const net::Packet& packet, net::NodeId from) {
  if (packet.dst == self_) {
    if (observer_ != nullptr) observer_->on_gossip_packet(packet, from);
    return;
  }
  if (packet.dst.is_broadcast() || packet.ttl <= 1) return;
  // A reply (or cached-member walk) in transit: relay it one hop along
  // the freshest reverse-path hint.
  const net::NodeId next = next_hop_for(packet.dst);
  if (!next.is_valid()) return;
  net::Packet fwd = packet;
  fwd.ttl--;
  ++counters_.gossip_relayed;
  mac_.send(next, std::move(fwd));
}

net::NodeId FloodRouter::next_hop_for(net::NodeId dest) const {
  const sim::SimTime now = mac_.now();
  if (const sim::SimTime* heard = heard_.find(dest);
      heard != nullptr && (now - *heard).to_seconds() <= kNeighborTtlS) {
    return dest;
  }
  if (const Hint* hint = hints_.find(dest); hint != nullptr) {
    if (const sim::SimTime* via = heard_.find(hint->via);
        via != nullptr && (now - *via).to_seconds() <= kNeighborTtlS) {
      return hint->via;
    }
  }
  return net::NodeId::invalid();
}

std::vector<net::NodeId> FloodRouter::tree_neighbors(net::GroupId) const {
  if (!gossip_links_) return {};
  // Every recently-heard transmitter is a peer on a relay-everything
  // substrate. Ascending node order (NodeTable contract) keeps walk
  // fan-out deterministic.
  std::vector<net::NodeId> out;
  const sim::SimTime now = mac_.now();
  heard_.for_each([&](net::NodeId id, const sim::SimTime& at) {
    if ((now - at).to_seconds() <= kNeighborTtlS) out.push_back(id);
  });
  return out;
}

void FloodRouter::unicast(net::NodeId dest, net::Payload payload) {
  if (!gossip_links_) return;
  const net::NodeId next = next_hop_for(dest);
  if (!next.is_valid()) return;
  net::Packet pkt;
  pkt.src = self_;
  pkt.dst = dest;
  pkt.ttl = kDataTtl;
  pkt.payload = std::move(payload);
  mac_.send(next, std::move(pkt));
}

void FloodRouter::send_to_neighbor(net::NodeId neighbor, net::Payload payload) {
  if (!gossip_links_) return;
  net::Packet pkt;
  pkt.src = self_;
  pkt.dst = neighbor;
  pkt.ttl = 8;
  pkt.payload = std::move(payload);
  mac_.send(neighbor, std::move(pkt));
}

void FloodRouter::route_hint(net::NodeId dest, net::NodeId via_neighbor,
                             std::uint8_t hops) {
  if (!gossip_links_) return;
  hints_[dest] = Hint{via_neighbor, hops};
}

std::uint8_t FloodRouter::route_hops(net::NodeId dest) const {
  if (!gossip_links_) return 0;
  const Hint* h = hints_.find(dest);
  return h != nullptr ? h->hops : 0;
}

}  // namespace ag::flood
