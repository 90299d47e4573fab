#include "odmrp/odmrp_router.h"

#include <algorithm>

namespace ag::odmrp {
namespace {

std::uint64_t query_key(net::GroupId group, net::NodeId source) {
  return (static_cast<std::uint64_t>(group.value()) << 32) | source.value();
}

}  // namespace

OdmrpRouter::OdmrpRouter(sim::Simulator& sim, mac::CsmaMac& mac, net::NodeId self,
                         sim::Rng rng)
    : AodvRouter{sim, mac, self, rng},
      refresh_timer_{sim, [this] { refresh_tick(); }, sim::EventCategory::router} {}

void OdmrpRouter::start() {
  AodvRouter::start();
  refresh_timer_.start(kRefreshInterval, &rng(), kRefreshInterval / 8);
}

void OdmrpRouter::reset() {
  refresh_timer_.stop();
  members_.clear();
  seen_data_.clear();
  query_seen_.clear();
  // Per-group soft state is wiped, but data/query sequence counters
  // survive: see harness::MulticastRouter::reset().
  groups_.for_each([](net::GroupId, GroupState& gs) {
    GroupState fresh;
    fresh.next_data_seq = gs.next_data_seq;
    fresh.next_query_seq = gs.next_query_seq;
    gs = std::move(fresh);
  });
  reset_unicast_state();
}

OdmrpRouter::GroupState& OdmrpRouter::state_for(net::GroupId group) {
  return groups_[group];
}

bool OdmrpRouter::is_forwarding(net::GroupId group) const {
  const GroupState* gs = groups_.find(group);
  return gs != nullptr && gs->forwarding_until >= simulator().now();
}

std::vector<net::NodeId> OdmrpRouter::mesh_neighbors(net::GroupId group) const {
  std::vector<net::NodeId> out;
  const GroupState* gs = groups_.find(group);
  if (gs == nullptr) return out;
  const sim::SimTime now = simulator().now();
  gs->mesh_peers.for_each([&](net::NodeId peer, const sim::SimTime& until) {
    if (until >= now) out.push_back(peer);
  });
  return out;
}

// ------------------------------------------------------------- membership

void OdmrpRouter::join_group(net::GroupId group) {
  if (!members_.insert(group)) return;
  GroupState& gs = state_for(group);
  gs.member = true;
  if (observer() != nullptr) observer()->on_self_membership_changed(group, true);
  // Answer any queries already flooding so the mesh reaches us quickly.
  std::vector<net::NodeId> sources;
  gs.sources.for_each(
      [&](net::NodeId source, const GroupState::SourcePath&) { sources.push_back(source); });
  for (net::NodeId source : sources) send_reply(group, gs, source);
}

void OdmrpRouter::leave_group(net::GroupId group) {
  if (!members_.erase(group)) return;
  GroupState& gs = state_for(group);
  gs.member = false;
  if (observer() != nullptr) observer()->on_self_membership_changed(group, false);
  // Soft state simply stops being refreshed and times out.
}

// ------------------------------------------------------------- source side

std::uint32_t OdmrpRouter::send_multicast(net::GroupId group, std::uint16_t payload_bytes) {
  GroupState& gs = state_for(group);
  const bool first_activity = gs.last_data_sent == sim::SimTime::zero();
  gs.last_data_sent = simulator().now();

  const std::uint32_t seq = gs.next_data_seq++;
  net::MulticastData data;
  data.group = group;
  data.origin = self();
  data.seq = seq;
  data.payload_bytes = payload_bytes;
  data.sent_at = simulator().now();
  seen_data_.insert(net::MsgId{self(), seq});
  if (gs.member && observer() != nullptr) observer()->on_multicast_data(data, self());
  broadcast_packet(data, kDataTtl);

  if (first_activity) refresh_tick();  // flood the first Join Query now
  return seq;
}

void OdmrpRouter::refresh_tick() {
  const sim::SimTime now = simulator().now();
  groups_.for_each([&](net::GroupId group, GroupState& gs) {
    expire_soft_state(group, gs);
    const bool active_source = gs.last_data_sent != sim::SimTime::zero() &&
                               now - gs.last_data_sent <= kSourceLinger;
    if (!active_source) return;
    JoinQueryMsg query{group, self(), gs.next_query_seq++, 0};
    ++ocounters_.queries_sent;
    broadcast_packet(query, kQueryTtl);
  });
}

void OdmrpRouter::expire_soft_state(net::GroupId group, GroupState& gs) {
  const sim::SimTime now = simulator().now();
  gs.mesh_peers.erase_if([&](net::NodeId peer, sim::SimTime& until) {
    if (until >= now) return false;
    if (observer() != nullptr) observer()->on_tree_neighbor_removed(group, peer);
    return true;
  });
}

// ------------------------------------------------------------- mesh build

void OdmrpRouter::process_query(const net::Packet& packet, const JoinQueryMsg& query,
                                net::NodeId from) {
  if (query.source == self()) return;
  auto [seen, inserted] =
      query_seen_.try_emplace(query_key(query.group, query.source), query.query_seq);
  if (!inserted) {
    if (query.query_seq <= *seen) return;  // stale or duplicate flood copy
    *seen = query.query_seq;
  }
  GroupState& gs = state_for(query.group);
  auto& path = gs.sources[query.source];
  path.query_seq = query.query_seq;
  path.upstream = from;
  // The reverse path doubles as a unicast route to the source — exactly
  // the "collected at no extra cost" routes cached gossip wants.
  route_hint(query.source, from, static_cast<std::uint8_t>(query.hop_count + 1));

  if (gs.member) send_reply(query.group, gs, query.source);

  if (packet.ttl > 1) {
    JoinQueryMsg fwd = query;
    fwd.hop_count++;
    broadcast_jittered(fwd, static_cast<std::uint8_t>(packet.ttl - 1));
  }
}

void OdmrpRouter::send_reply(net::GroupId group, GroupState& gs, net::NodeId source) {
  if (source == self()) return;
  GroupState::SourcePath* found = gs.sources.find(source);
  if (found == nullptr) return;
  GroupState::SourcePath& path = *found;
  if (path.replied_seq >= path.query_seq) return;  // already answered this round
  if (!path.upstream.is_valid()) return;
  path.replied_seq = path.query_seq;
  JoinReplyMsg reply;
  reply.group = group;
  reply.sender = self();
  reply.entries.push_back({source, path.upstream, path.query_seq});
  ++ocounters_.replies_sent;
  broadcast_packet(reply, 1);
}

void OdmrpRouter::process_reply(const JoinReplyMsg& reply, net::NodeId from) {
  GroupState& gs = state_for(reply.group);
  // Whoever broadcasts a Join Reply is a member or forwarding-group node:
  // a live mesh peer for the gossip walk.
  note_mesh_peer(reply.group, gs, from);

  for (const JoinReplyMsg::Entry& entry : reply.entries) {
    if (entry.next_hop != self()) continue;
    // We are on a member-to-source path: join the forwarding group.
    gs.forwarding_until = simulator().now() + kFgTimeout;
    note_mesh_peer(reply.group, gs, from);
    if (entry.source == self()) continue;  // the chain reached the source
    // Propagate the reply toward the source along our own reverse path.
    GroupState::SourcePath* path = gs.sources.find(entry.source);
    if (path == nullptr || !path->upstream.is_valid()) continue;
    if (path->replied_seq >= entry.query_seq) continue;
    path->replied_seq = entry.query_seq;
    JoinReplyMsg fwd;
    fwd.group = reply.group;
    fwd.sender = self();
    fwd.entries.push_back({entry.source, path->upstream, entry.query_seq});
    ++ocounters_.replies_sent;
    broadcast_packet(fwd, 1);
  }
}

void OdmrpRouter::note_mesh_peer(net::GroupId group, GroupState& gs, net::NodeId peer) {
  if (peer == self()) return;
  const auto until = simulator().now() + kFgTimeout;
  auto [expires, inserted] = gs.mesh_peers.try_emplace(peer, until);
  if (!inserted) {
    *expires = until;
    return;
  }
  if (observer() != nullptr) observer()->on_tree_neighbor_added(group, peer, 0);
}

// -------------------------------------------------------------- data path

void OdmrpRouter::process_data(const net::Packet& packet, const net::MulticastData& data,
                               net::NodeId from) {
  GroupState& gs = state_for(data.group);
  if (!seen_data_.insert(net::MsgId{data.origin, data.seq})) return;
  // The transmitter is the source or a forwarding-group node: mesh peer.
  note_mesh_peer(data.group, gs, from);
  if (gs.member) {
    ++ocounters_.data_delivered;
    if (observer() != nullptr) observer()->on_multicast_data(data, from);
  }
  const bool forwarding = gs.forwarding_until >= simulator().now();
  if (forwarding && packet.ttl > 1) {
    net::MulticastData fwd = data;
    fwd.hops++;
    ++ocounters_.data_forwarded;
    broadcast_jittered(fwd, static_cast<std::uint8_t>(packet.ttl - 1),
                       sim::Duration::ms(5));
  }
}

void OdmrpRouter::handle_multicast_packet(const net::Packet& packet, net::NodeId from) {
  std::visit(net::overloaded{
                 [&](const JoinQueryMsg& q) { process_query(packet, q, from); },
                 [&](const JoinReplyMsg& r) { process_reply(r, from); },
                 [&](const net::MulticastData& d) { process_data(packet, d, from); },
                 [&](const auto&) {},
             },
             packet.payload);
}

}  // namespace ag::odmrp
