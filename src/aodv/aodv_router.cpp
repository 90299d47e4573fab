#include "aodv/aodv_router.h"

#include <algorithm>
#include <cassert>

namespace ag::aodv {
namespace {

std::uint64_t rreq_key(net::NodeId origin, std::uint32_t rreq_id) {
  return (static_cast<std::uint64_t>(origin.value()) << 32) | rreq_id;
}

}  // namespace

AodvRouter::AodvRouter(sim::Simulator& sim, mac::CsmaMac& mac, net::NodeId self,
                       sim::Rng rng)
    : sim_{sim},
      mac_{mac},
      self_{self},
      rng_{rng},
      hello_timer_{sim, [this] { send_hello(); }, sim::EventCategory::router},
      sweep_timer_{sim, [this] { sweep_neighbors(); }, sim::EventCategory::router} {
  mac_.set_listener(this);
}

void AodvRouter::start() {
  // Jitter desynchronizes beacons across nodes.
  hello_timer_.start(kHelloInterval, &rng_, kHelloInterval / 4);
  sweep_timer_.start(kHelloInterval, &rng_, kHelloInterval / 8);
}

void AodvRouter::reset_unicast_state() {
  hello_timer_.stop();
  sweep_timer_.stop();
  routes_.clear();
  neighbors_.clear();
  rreq_cache_.clear();
  discoveries_.clear();  // RAII timers cancel any pending discovery retry
}

// ---------------------------------------------------------------- sending

void AodvRouter::send_unicast(net::Packet pkt) {
  if (pkt.dst == self_) {
    if (observer_ != nullptr) observer_->on_gossip_packet(pkt, self_);
    return;
  }
  const sim::SimTime now = sim_.now();
  if (RouteEntry* route = routes_.find_valid(pkt.dst, now)) {
    routes_.refresh(pkt.dst, now + kActiveRouteTimeout);
    mac_.send(route->next_hop, std::move(pkt));
    return;
  }
  const net::NodeId dst = pkt.dst;
  auto& pending = discoveries_[dst];
  if (pending.buffered.size() >= kMaxBufferedPerDest) {
    ++counters_.no_route_drops;
  } else {
    pending.buffered.push_back(std::move(pkt));
  }
  discover(dst);
}

void AodvRouter::unicast(net::NodeId dest, net::Payload payload) {
  net::Packet pkt;
  pkt.src = self_;
  pkt.dst = dest;
  pkt.ttl = kNetTtl;
  pkt.payload = std::move(payload);
  send_unicast(std::move(pkt));
}

void AodvRouter::send_to_neighbor(net::NodeId neighbor, net::Payload payload) {
  net::Packet pkt;
  pkt.src = self_;
  pkt.dst = neighbor;
  pkt.ttl = 1;
  pkt.payload = std::move(payload);
  mac_.send(neighbor, std::move(pkt));
}

void AodvRouter::unicast_to_neighbor(net::NodeId neighbor, net::Packet pkt) {
  mac_.send(neighbor, std::move(pkt));
}

void AodvRouter::broadcast_packet(net::Payload payload, std::uint8_t ttl) {
  net::Packet pkt;
  pkt.src = self_;
  pkt.dst = net::NodeId::broadcast();
  pkt.ttl = ttl;
  pkt.payload = std::move(payload);
  mac_.send(net::NodeId::broadcast(), std::move(pkt));
}

void AodvRouter::broadcast_jittered(net::Payload payload, std::uint8_t ttl,
                                    sim::Duration max_jitter) {
  const auto delay = sim::Duration::us(rng_.uniform_int(0, max_jitter.count_us()));
  // Build the pooled packet now (the content is already final): the event
  // captures one shared_ptr instead of copying the whole payload twice.
  net::PacketPtr pkt =
      net::make_packet(self_, net::NodeId::broadcast(), ttl, std::move(payload));
  sim_.schedule_after(
      delay, [this, pkt = std::move(pkt)] { mac_.send(net::NodeId::broadcast(), pkt); },
      sim::EventCategory::router);
}

void AodvRouter::route_hint(net::NodeId dest, net::NodeId via_neighbor, std::uint8_t hops) {
  if (dest == self_) return;
  routes_.offer(dest, net::SeqNo{}, /*seq_known=*/false, hops, via_neighbor,
                sim_.now() + kActiveRouteTimeout);
}

std::uint8_t AodvRouter::route_hops(net::NodeId dest) const {
  const RouteEntry* e = routes_.find(dest);
  return e != nullptr && e->valid ? e->hops : 0;
}

// ---------------------------------------------------------------- discovery

void AodvRouter::discover(net::NodeId dest) {
  auto& pending = discoveries_[dest];
  if (pending.timer != nullptr && pending.timer->pending()) return;  // in progress
  if (pending.timer == nullptr) {
    pending.timer = std::make_unique<sim::Timer>(
        sim_, [this, dest] { discovery_timeout(dest); }, sim::EventCategory::router);
  }
  ++pending.attempts;

  RreqMsg rreq;
  rreq.rreq_id = next_rreq_id();
  rreq.origin = self_;
  rreq.origin_seq = bump_own_seq();
  rreq.dest = dest;
  if (const RouteEntry* stale = routes_.find(dest); stale != nullptr && stale->seq_known) {
    rreq.dest_seq = stale->seq;
    rreq.dest_seq_known = true;
  }
  ++counters_.rreq_originated;
  broadcast_packet(rreq, kNetTtl);

  // Binary backoff on the wait between attempts.
  sim::Duration wait = kRreqWait;
  for (std::uint32_t i = 1; i < pending.attempts; ++i) wait = wait * std::int64_t{2};
  pending.timer->restart(wait);
}

void AodvRouter::discovery_timeout(net::NodeId dest) {
  PendingDiscovery* pending = discoveries_.find(dest);
  if (pending == nullptr) return;
  if (routes_.find_valid(dest, sim_.now()) != nullptr) {
    flush_buffered(dest);
    return;
  }
  if (pending->attempts <= kRreqRetries) {
    discover(dest);
    return;
  }
  ++counters_.discovery_failures;
  counters_.no_route_drops += pending->buffered.size();
  discoveries_.erase(dest);
}

void AodvRouter::flush_buffered(net::NodeId dest) {
  PendingDiscovery* pending = discoveries_.find(dest);
  if (pending == nullptr) return;
  std::deque<net::Packet> buffered = std::move(pending->buffered);
  discoveries_.erase(dest);
  for (net::Packet& pkt : buffered) send_unicast(std::move(pkt));
}

// ---------------------------------------------------------------- receive

void AodvRouter::on_packet_received(const net::Packet& packet, net::NodeId from) {
  note_neighbor_alive(from);
  std::visit(
      net::overloaded{
          [&](const HelloMsg& hello) {
            // 1-hop route to the neighbor, refreshed every beacon.
            routes_.offer(hello.origin, hello.origin_seq, true, 1, hello.origin,
                          sim_.now() + kNeighborLifetime);
          },
          [&](const RreqMsg& rreq) { process_rreq(packet, rreq, from); },
          [&](const RrepMsg& rrep) { process_rrep(packet, rrep, from); },
          [&](const RerrMsg& rerr) { process_rerr(rerr, from); },
          [&](const maodv::MactMsg&) { handle_multicast_packet(packet, from); },
          [&](const maodv::GrphMsg&) { handle_multicast_packet(packet, from); },
          [&](const net::MulticastData&) { handle_multicast_packet(packet, from); },
          [&](const odmrp::JoinQueryMsg&) { handle_multicast_packet(packet, from); },
          [&](const odmrp::JoinReplyMsg&) { handle_multicast_packet(packet, from); },
          [&](const gossip::GossipMsg&) {
            if (packet.dst == self_) {
              if (observer_ != nullptr) observer_->on_gossip_packet(packet, from);
            } else {
              forward_unicast(packet, from);
            }
          },
          [&](const gossip::GossipReplyMsg&) {
            if (packet.dst == self_) {
              if (observer_ != nullptr) observer_->on_gossip_packet(packet, from);
            } else {
              forward_unicast(packet, from);
            }
          },
          [&](const gossip::NearestMemberMsg&) {
            if (packet.dst == self_ && observer_ != nullptr) {
              observer_->on_gossip_packet(packet, from);
            }
          },
          [&](const dtn::CustodyHandoffMsg&) {
            // One-hop custody handoffs are consumed by the CustodyRouter
            // decorator before the wrapped router's listener runs; without
            // the decorator nothing sends them.
          },
      },
      packet.payload);
}

void AodvRouter::forward_unicast(net::Packet pkt, net::NodeId from) {
  if (pkt.ttl <= 1) return;
  pkt.ttl--;
  const sim::SimTime now = sim_.now();
  // The path back to the packet's source runs through `from`; remember it.
  if (pkt.src != self_ && pkt.src != from) {
    routes_.offer(pkt.src, net::SeqNo{}, false, 0, from, now + kReverseRouteLife);
  }
  if (RouteEntry* route = routes_.find_valid(pkt.dst, now)) {
    routes_.refresh(pkt.dst, now + kActiveRouteTimeout);
    mac_.send(route->next_hop, std::move(pkt));
    return;
  }
  ++counters_.no_route_drops;
  RerrMsg rerr;
  net::SeqNo seq;
  if (const RouteEntry* stale = routes_.find(pkt.dst); stale != nullptr) seq = stale->seq;
  rerr.unreachable.push_back({pkt.dst, seq});
  ++counters_.rerr_sent;
  broadcast_packet(std::move(rerr), 1);
}

// ------------------------------------------------------------------- RREQ

void AodvRouter::learn_reverse_routes(const RreqMsg& rreq, net::NodeId from) {
  const sim::SimTime now = sim_.now();
  routes_.offer(from, net::SeqNo{}, false, 1, from, now + kReverseRouteLife);
  routes_.offer(rreq.origin, rreq.origin_seq, true,
                static_cast<std::uint8_t>(rreq.hop_count + 1), from,
                now + kReverseRouteLife);
}

bool AodvRouter::rreq_seen_before(net::NodeId origin, std::uint32_t rreq_id) {
  const std::uint64_t key = rreq_key(origin, rreq_id);
  const sim::SimTime now = sim_.now();
  auto [expiry, inserted] =
      rreq_cache_.try_emplace(key, now + kPathDiscoveryTime);
  if (!inserted && *expiry >= now) return true;
  *expiry = now + kPathDiscoveryTime;
  // Opportunistic cleanup keeps the cache bounded on long runs.
  if (rreq_cache_.size() > 2048) {
    rreq_cache_.erase_if(
        [now](std::uint64_t, sim::SimTime& expires) { return expires < now; });
  }
  return false;
}

void AodvRouter::process_rreq(const net::Packet& pkt, const RreqMsg& rreq, net::NodeId from) {
  if (rreq.origin == self_) return;
  learn_reverse_routes(rreq, from);
  if (rreq_seen_before(rreq.origin, rreq.rreq_id)) return;

  bool answered = false;
  if (rreq.join || rreq.repair) {
    answered = try_answer_join_rreq(rreq, from);
  } else {
    answered = try_answer_unicast_rreq(rreq, from);
  }
  if (!answered && pkt.ttl > 1) {
    RreqMsg fwd = rreq;
    fwd.hop_count++;
    broadcast_jittered(fwd, static_cast<std::uint8_t>(pkt.ttl - 1));
  }
}

bool AodvRouter::try_answer_unicast_rreq(const RreqMsg& rreq, net::NodeId from) {
  const sim::SimTime now = sim_.now();
  RrepMsg rrep;
  rrep.origin = rreq.origin;
  rrep.dest = rreq.dest;
  if (rreq.dest == self_) {
    // Draft: the destination's sequence number must be at least as fresh
    // as what the RREQ carries.
    if (rreq.dest_seq_known && rreq.dest_seq.fresher_than(own_seq_)) {
      own_seq_ = rreq.dest_seq;
    }
    bump_own_seq();
    rrep.dest_seq = own_seq_;
    rrep.hop_count = 0;
    rrep.lifetime = kActiveRouteTimeout;
    send_rrep(from, rrep);
    return true;
  }
  RouteEntry* route = routes_.find_valid(rreq.dest, now);
  if (route == nullptr || !route->seq_known) return false;
  if (rreq.dest_seq_known && !route->seq.at_least_as_fresh_as(rreq.dest_seq)) return false;
  rrep.dest_seq = route->seq;
  rrep.hop_count = route->hops;
  rrep.lifetime = route->expires - now;
  send_rrep(from, rrep);
  return true;
}

void AodvRouter::send_rrep(net::NodeId to_neighbor, const RrepMsg& rrep) {
  net::Packet pkt;
  pkt.src = self_;
  pkt.dst = to_neighbor;  // hop-by-hop; each hop re-addresses toward origin
  pkt.ttl = kNetTtl;
  pkt.payload = rrep;
  mac_.send(to_neighbor, std::move(pkt));
}

// ------------------------------------------------------------------- RREP

void AodvRouter::process_rrep(const net::Packet&, const RrepMsg& rrep, net::NodeId from) {
  const sim::SimTime now = sim_.now();
  // Forward route toward the RREP's destination (or the multicast tree
  // responder for join RREPs).
  const net::NodeId route_target = rrep.join ? rrep.responder : rrep.dest;
  if (route_target != self_ && route_target.is_valid()) {
    routes_.offer(route_target, rrep.dest_seq, true,
                  static_cast<std::uint8_t>(rrep.hop_count + 1), from,
                  now + rrep.lifetime);
  }

  if (rrep.join) {
    handle_join_rrep(rrep, from);
    return;
  }
  if (rrep.origin == self_) {
    flush_buffered(rrep.dest);
    return;
  }
  // Forward along the reverse route created by the RREQ flood.
  RouteEntry* back = routes_.find_valid(rrep.origin, now);
  if (back == nullptr) return;  // reverse route expired; RREP dies here
  RrepMsg fwd = rrep;
  fwd.hop_count++;
  net::Packet pkt;
  pkt.src = self_;
  pkt.dst = back->next_hop;
  pkt.ttl = kNetTtl;
  pkt.payload = fwd;
  mac_.send(back->next_hop, std::move(pkt));
}

// ------------------------------------------------------------------- RERR

void AodvRouter::process_rerr(const RerrMsg& rerr, net::NodeId from) {
  std::vector<net::NodeId> newly_broken;
  for (const auto& u : rerr.unreachable) {
    RouteEntry* e = routes_.find(u.dest);
    if (e == nullptr || !e->valid || e->next_hop != from) continue;
    routes_.invalidate(u.dest);
    newly_broken.push_back(u.dest);
  }
  if (!newly_broken.empty()) report_broken_routes(newly_broken);
}

void AodvRouter::report_broken_routes(const std::vector<net::NodeId>& dests) {
  RerrMsg rerr;
  for (net::NodeId d : dests) {
    net::SeqNo seq;
    if (const RouteEntry* e = routes_.find(d); e != nullptr) seq = e->seq;
    rerr.unreachable.push_back({d, seq});
  }
  ++counters_.rerr_sent;
  broadcast_packet(std::move(rerr), 1);
}

// ------------------------------------------------------------- link state

void AodvRouter::note_neighbor_alive(net::NodeId neighbor) {
  neighbors_.heard(neighbor, sim_.now());
}

void AodvRouter::on_unicast_failed(const net::Packet&, net::NodeId next_hop) {
  ++counters_.link_breaks_mac;
  neighbors_.remove(next_hop);
  handle_link_failure(next_hop);
}

void AodvRouter::handle_link_failure(net::NodeId neighbor) {
  std::vector<net::NodeId> broken = routes_.dests_via(neighbor);
  for (net::NodeId d : broken) routes_.invalidate(d);
  if (!broken.empty()) report_broken_routes(broken);
  on_neighbor_lost(neighbor);
}

void AodvRouter::send_hello() {
  HelloMsg hello{self_, own_seq_};
  broadcast_packet(hello, 1);
}

void AodvRouter::sweep_neighbors() {
  const sim::SimTime cutoff = sim_.now() - kNeighborLifetime;
  for (net::NodeId lost : neighbors_.sweep_expired(cutoff)) {
    ++counters_.link_breaks_hello;
    handle_link_failure(lost);
  }
}

}  // namespace ag::aodv
