#include "maodv/maodv_router.h"

#include <algorithm>
#include <cassert>

namespace ag::maodv {

MaodvRouter::MaodvRouter(sim::Simulator& sim, mac::CsmaMac& mac, net::NodeId self,
                         sim::Rng rng)
    : AodvRouter{sim, mac, self, rng},
      grph_timer_{sim, [this] { emit_group_hellos(); }, sim::EventCategory::router},
      liveness_timer_{sim, [this] { check_group_liveness(); },
                      sim::EventCategory::router} {}

void MaodvRouter::start() {
  AodvRouter::start();
  grph_timer_.start(kGroupHelloInterval, &rng(), kGroupHelloInterval / 8);
  liveness_timer_.start(kGroupHelloInterval, &rng(), kGroupHelloInterval / 8);
}

void MaodvRouter::reset() {
  grph_timer_.stop();
  liveness_timer_.stop();
  joins_.clear();  // RAII timers cancel any pending join retry
  grafts_.clear();
  grph_seen_.clear();
  tree_beat_seen_.clear();
  last_merge_attempt_.clear();
  corrective_prune_at_.clear();
  seen_data_.clear();
  mrt_.clear();
  reset_unicast_state();
  // next_data_seq_ survives: see harness::MulticastRouter::reset().
}

// ------------------------------------------------------------- membership

bool MaodvRouter::is_member(net::GroupId group) const {
  const GroupEntry* e = mrt_.find(group);
  return e != nullptr && e->is_member;
}

bool MaodvRouter::on_tree(net::GroupId group) const {
  const GroupEntry* e = mrt_.find(group);
  return e != nullptr && e->on_tree();
}

std::vector<net::NodeId> MaodvRouter::tree_neighbors(net::GroupId group) const {
  const GroupEntry* e = mrt_.find(group);
  return e == nullptr ? std::vector<net::NodeId>{} : e->enabled_hops();
}

void MaodvRouter::join_group(net::GroupId group) {
  GroupEntry& e = mrt_.get_or_create(group);
  if (e.is_member) return;
  e.is_member = true;
  if (observer() != nullptr) observer()->on_self_membership_changed(group, true);
  if (e.on_tree()) return;  // already a tree router; membership flag suffices
  if (e.join_state != JoinState::none) return;
  start_join(group, /*repair=*/false);
}

void MaodvRouter::leave_group(net::GroupId group) {
  GroupEntry* e = mrt_.find(group);
  if (e == nullptr || !e->is_member) return;
  e->is_member = false;
  if (observer() != nullptr) observer()->on_self_membership_changed(group, false);
  maybe_self_prune(group);
}

// ------------------------------------------------------------------ joins

void MaodvRouter::start_join(net::GroupId group, bool repair, net::NodeId merge_target) {
  GroupEntry& e = mrt_.get_or_create(group);
  e.join_state = repair ? JoinState::repairing : JoinState::joining;

  JoinAttempt& attempt = joins_[group];
  if (attempt.timer == nullptr) {
    attempt.timer = std::make_unique<sim::Timer>(
        simulator(), [this, group] { join_wait_expired(group); },
        sim::EventCategory::router);
  }
  if (attempt.attempts == 0) {
    attempt.repair = repair;
    attempt.merge_target = merge_target;
    attempt.best = JoinCandidate{};
    mcounters_.repairs_started += repair ? 1 : 0;
  }
  ++attempt.attempts;

  aodv::RreqMsg rreq;
  rreq.rreq_id = next_rreq_id();
  rreq.origin = self();
  rreq.origin_seq = bump_own_seq();
  rreq.dest = merge_target;  // invalid() unless this is a merge
  rreq.join = true;
  rreq.repair = repair;
  rreq.group = group;
  if (e.seq_known) {
    rreq.group_seq = e.group_seq;
    rreq.group_seq_known = true;
  }
  if (repair) {
    rreq.mgl_present = true;
    rreq.mgl_hop_count = e.hops_to_leader;
  }
  broadcast_packet(rreq, repair ? kRepairTtl : kJoinTtl);

  sim::Duration wait = repair ? kRepairWait : kJoinWait;
  for (std::uint32_t i = 1; i < attempt.attempts; ++i) wait = wait * std::int64_t{2};
  attempt.timer->restart(wait);
}

bool MaodvRouter::try_answer_join_rreq(const aodv::RreqMsg& rreq, net::NodeId from) {
  GroupEntry* e = mrt_.find(rreq.group);
  if (e == nullptr || !e->on_tree()) return false;
  // A node mid-repair must not graft others onto a possibly detached
  // subtree.
  if (e->join_state == JoinState::repairing) return false;

  if (rreq.dest.is_valid()) {
    // Merge RREQ: only the targeted leader itself may answer.
    if (rreq.dest != self() || !e->is_leader) return false;
    // Win the freshness contest so every node of both partitions adopts
    // this leader on the next group hello.
    if (rreq.group_seq_known && rreq.group_seq.fresher_than(e->group_seq)) {
      e->group_seq = rreq.group_seq;
    }
    e->group_seq = e->group_seq.next();
  } else if (rreq.repair) {
    // Only nodes strictly closer to the leader may repair (prevents the
    // requester's own subtree from answering and forming a loop).
    if (!rreq.mgl_present || e->hops_to_leader >= rreq.mgl_hop_count) return false;
  } else {
    // Plain join: our group information must be at least as fresh.
    if (!e->seq_known) return false;
    if (rreq.group_seq_known && !e->group_seq.at_least_as_fresh_as(rreq.group_seq)) {
      return false;
    }
  }

  aodv::RrepMsg rrep;
  rrep.join = true;
  rrep.group = rreq.group;
  rrep.origin = rreq.origin;
  rrep.dest = rreq.origin;
  rrep.dest_seq = rreq.origin_seq;
  rrep.group_seq = e->group_seq;
  rrep.group_leader = e->is_leader ? self() : e->leader;
  rrep.mgl_hop_count = e->hops_to_leader == GroupEntry::kUnknownHops
                           ? GroupEntry::kUnknownHops
                           : e->hops_to_leader;
  rrep.responder = self();
  rrep.responder_is_member = e->is_member;
  rrep.hop_count = 0;
  rrep.lifetime = kGraftCandidateLife;
  send_rrep(from, rrep);
  return true;
}

void MaodvRouter::handle_join_rrep(const aodv::RrepMsg& rrep, net::NodeId from) {
  if (rrep.origin == self()) {
    JoinAttempt* found = joins_.find(rrep.group);
    if (found == nullptr) return;  // late RREP, join already resolved
    JoinAttempt& attempt = *found;
    if (observer() != nullptr && rrep.responder_is_member) {
      observer()->on_member_learned(rrep.group, rrep.responder,
                                   static_cast<std::uint8_t>(rrep.hop_count + 1));
    }
    const std::uint16_t total =
        rrep.mgl_hop_count == GroupEntry::kUnknownHops
            ? GroupEntry::kUnknownHops
            : static_cast<std::uint16_t>(rrep.mgl_hop_count + rrep.hop_count + 1);
    JoinCandidate cand{from,
                       rrep.responder,
                       rrep.group_leader,
                       rrep.group_seq,
                       total,
                       static_cast<std::uint8_t>(rrep.hop_count + 1),
                       rrep.responder_is_member,
                       /*valid=*/true};
    const bool better =
        !attempt.best.valid || cand.group_seq.fresher_than(attempt.best.group_seq) ||
        (cand.group_seq == attempt.best.group_seq &&
         cand.total_hops_to_leader < attempt.best.total_hops_to_leader);
    if (better) attempt.best = cand;
    return;
  }
  // Intermediate hop: remember the upstream candidate for this (group,
  // origin) graft and relay toward the origin along the reverse route.
  grafts_[pair_key(rrep.group, rrep.origin)] =
      GraftCandidate{from, simulator().now() + kGraftCandidateLife};
  aodv::RouteEntry* back = route_table().find_valid(rrep.origin, simulator().now());
  if (back == nullptr) return;
  aodv::RrepMsg fwd = rrep;
  fwd.hop_count++;
  net::Packet pkt;
  pkt.src = self();
  pkt.dst = back->next_hop;
  pkt.ttl = aodv::kNetTtl;
  pkt.payload = fwd;
  unicast_to_neighbor(back->next_hop, std::move(pkt));
}

void MaodvRouter::join_wait_expired(net::GroupId group) {
  JoinAttempt* found = joins_.find(group);
  if (found == nullptr) return;
  JoinAttempt& attempt = *found;
  GroupEntry& e = mrt_.get_or_create(group);

  if (attempt.best.valid) {
    finish_join_success(group, attempt);
    return;
  }
  const std::uint32_t max_attempts =
      1 + (attempt.repair ? kRepairRetries : kJoinRetries);
  if (attempt.attempts < max_attempts) {
    start_join(group, attempt.repair, attempt.merge_target);
    return;
  }
  // All attempts exhausted.
  const bool was_repair = attempt.repair;
  const bool was_merge = attempt.merge_target.is_valid();
  joins_.erase(group);
  e.join_state = JoinState::none;
  if (was_merge) return;  // merge failed; stay leader, retry on next GRPH
  if (was_repair) {
    handle_partition(group);
  } else if (e.is_member) {
    // First member of the group: nobody answered, so found it (draft
    // behaviour: the first member becomes the group leader).
    become_leader(group);
  }
}

void MaodvRouter::finish_join_success(net::GroupId group, JoinAttempt& attempt) {
  GroupEntry& e = mrt_.get_or_create(group);
  const JoinCandidate best = attempt.best;
  const bool was_repair = attempt.repair;
  const bool was_merge = attempt.merge_target.is_valid();
  joins_.erase(group);
  e.join_state = JoinState::none;

  // Grafting onto a new parent: drop any previous upstream (single
  // upstream invariant keeps the structure a tree).
  const net::NodeId old_upstream = e.upstream();
  if (old_upstream.is_valid() && old_upstream != best.via) {
    send_mact(old_upstream, group, self(), MactMsg::Flag::prune);
    deactivate_hop(e, old_upstream);
  }

  // If the graft point is our direct neighbor and a member, the nearest
  // member through this hop is at distance 1.
  const std::uint16_t hint =
      best.via == best.responder && best.responder_is_member ? 1 : 0;
  activate_hop(e, best.via, /*upstream=*/true, hint);
  e.leader = best.leader;
  e.group_seq = best.group_seq;
  e.seq_known = true;
  e.hops_to_leader = best.total_hops_to_leader;
  e.last_group_hello = simulator().now();
  if (was_merge) {
    // Merged under the other tree: relinquish leadership; our old subtree
    // adopts the surviving leader from its fresher group hellos.
    e.is_leader = false;
  }
  send_mact(best.via, group, self(), MactMsg::Flag::join);
  mcounters_.joins_completed += was_repair ? 0 : 1;
  mcounters_.repairs_succeeded += was_repair ? 1 : 0;
}

void MaodvRouter::become_leader(net::GroupId group) {
  GroupEntry& e = mrt_.get_or_create(group);
  e.is_leader = true;
  e.leader = self();
  e.group_seq = e.seq_known ? e.group_seq.next() : net::SeqNo{1};
  e.seq_known = true;
  e.hops_to_leader = 0;
  e.clear_upstream_flags();  // a leader has no upstream
  e.join_state = JoinState::none;
  e.last_group_hello = simulator().now();
  ++mcounters_.leaders_elected;
  // Announce immediately so concurrent joiners find the tree quickly.
  emit_group_hellos();
}

void MaodvRouter::handle_partition(net::GroupId group) {
  GroupEntry& e = mrt_.get_or_create(group);
  ++mcounters_.partitions;
  // The broken upstream is already deactivated. Elect a leader within the
  // surviving downstream subtree.
  if (e.is_member) {
    become_leader(group);
    return;
  }
  const std::vector<net::NodeId> hops = e.enabled_hops();
  if (hops.empty()) {
    mrt_.erase(group);
    return;
  }
  // Delegate leadership toward the first member found downstream.
  send_mact(hops.front(), group, self(), MactMsg::Flag::group_leader);
  e.leader = net::NodeId::invalid();
  e.hops_to_leader = GroupEntry::kUnknownHops;
}

// ------------------------------------------------------------------- MACT

void MaodvRouter::send_mact(net::NodeId to, net::GroupId group, net::NodeId origin,
                            MactMsg::Flag flag, std::uint8_t hop_count) {
  MactMsg mact{group, origin, flag, hop_count};
  ++mcounters_.mact_sent;
  if (flag == MactMsg::Flag::prune) ++mcounters_.prunes_sent;
  AodvRouter::send_to_neighbor(to, mact);
}

void MaodvRouter::process_mact(const MactMsg& mact, net::NodeId from) {
  GroupEntry& e = mrt_.get_or_create(mact.group);
  switch (mact.flag) {
    case MactMsg::Flag::join: {
      const bool on_tree_before = e.on_tree();
      // The sender is our new downstream branch. If the sender is the
      // joining member itself, the nearest member through it is 1 hop.
      activate_hop(e, from, /*upstream=*/false,
                   mact.origin == from ? std::uint16_t{1} : std::uint16_t{0});
      if (on_tree_before || e.is_leader) return;  // graft completed here
      if (e.upstream().is_valid()) return;
      // Continue the activation chain toward the tree.
      const std::uint64_t key = pair_key(mact.group, mact.origin);
      const GraftCandidate* git = grafts_.find(key);
      if (git == nullptr || git->expires < simulator().now()) {
        // Candidate expired: we cannot reach the tree. Prune the orphan
        // branch; the joiner will retry.
        send_mact(from, mact.group, self(), MactMsg::Flag::prune);
        deactivate_hop(e, from);
        maybe_self_prune(mact.group);
        return;
      }
      const net::NodeId up = git->via;
      grafts_.erase(key);
      activate_hop(e, up, /*upstream=*/true, 0);
      send_mact(up, mact.group, mact.origin, MactMsg::Flag::join,
                static_cast<std::uint8_t>(mact.hop_count + 1));
      return;
    }
    case MactMsg::Flag::prune: {
      const MulticastNextHop* h = e.find_hop(from);
      const bool was_upstream = h != nullptr && h->enabled && h->upstream;
      if (h != nullptr) deactivate_hop(e, from);
      if (was_upstream) {
        // Our parent disowned us (often a one-sided hello timeout on its
        // side): re-attach the whole subtree below us.
        if ((e.is_member || e.enabled_count() > 0) && e.join_state == JoinState::none) {
          start_join(mact.group, /*repair=*/true);
        }
        return;
      }
      maybe_self_prune(mact.group);
      return;
    }
    case MactMsg::Flag::group_leader: {
      if (e.is_member || e.is_leader) {
        become_leader(mact.group);
        return;
      }
      for (net::NodeId hop : e.enabled_hops()) {
        if (hop != from) {
          send_mact(hop, mact.group, mact.origin, MactMsg::Flag::group_leader,
                    static_cast<std::uint8_t>(mact.hop_count + 1));
          return;
        }
      }
      // Degenerate: non-member leaf asked to delegate leadership.
      become_leader(mact.group);
      return;
    }
  }
}

void MaodvRouter::maybe_self_prune(net::GroupId group) {
  GroupEntry* e = mrt_.find(group);
  if (e == nullptr) return;
  if (e->is_member || e->is_leader) return;
  const std::vector<net::NodeId> hops = e->enabled_hops();
  if (hops.size() == 1) {
    // Leaf router with no local member: leave the tree (paper section 3).
    send_mact(hops.front(), group, self(), MactMsg::Flag::prune);
    deactivate_hop(*e, hops.front());
  }
  if (e->enabled_count() == 0) mrt_.erase(group);
}

void MaodvRouter::activate_hop(GroupEntry& entry, net::NodeId hop, bool upstream,
                               std::uint16_t member_distance_hint) {
  MulticastNextHop& h = entry.add_or_get_hop(hop);
  const bool newly_enabled = !h.enabled;
  h.enabled = true;
  if (upstream) {
    entry.clear_upstream_flags();
    h.upstream = true;
  }
  if (newly_enabled && observer() != nullptr) {
    observer()->on_tree_neighbor_added(entry.group, hop, member_distance_hint);
  }
}

void MaodvRouter::deactivate_hop(GroupEntry& entry, net::NodeId hop) {
  MulticastNextHop* h = entry.find_hop(hop);
  if (h == nullptr) return;
  const bool was_enabled = h->enabled;
  entry.remove_hop(hop);
  if (was_enabled && observer() != nullptr) {
    observer()->on_tree_neighbor_removed(entry.group, hop);
  }
}

// ------------------------------------------------------------------- GRPH

void MaodvRouter::emit_group_hellos() {
  mrt_.for_each([&](net::GroupId group, GroupEntry& e) {
    if (!e.is_leader) return;
    e.group_seq = e.group_seq.next();
    e.seq_known = true;
    e.last_group_hello = simulator().now();
    GrphMsg grph{group, self(), e.group_seq, 0, false, {}};
    ++mcounters_.grph_sent;
    broadcast_packet(grph, kGrphTtl);
    // Tree-scoped beat: proves, edge by edge, that the tree still hangs
    // together (the flood above reaches everyone regardless of the tree,
    // so it cannot serve as a liveness signal).
    if (e.enabled_count() > 0) {
      GrphMsg beat{group, self(), e.group_seq, 0, true, e.enabled_hops()};
      broadcast_packet(beat, 1);
    }
  });
}

void MaodvRouter::process_tree_beat(const GrphMsg& beat, net::NodeId from) {
  GroupEntry* e = mrt_.find(beat.group);
  if (e == nullptr || !e->on_tree() || e->is_leader) return;
  MulticastNextHop* h = e->find_hop(from);
  if (h == nullptr || !h->enabled) return;
  // Bidirectional check: our parent must list us among its children.
  if (std::find(beat.tree_children.begin(), beat.tree_children.end(), self()) ==
      beat.tree_children.end()) {
    return;
  }
  // Dedup per (leader, seq) so transient cycles cannot echo beats forever.
  auto [seen, inserted] =
      tree_beat_seen_.try_emplace(pair_key(beat.group, beat.leader), beat.group_seq);
  if (!inserted) {
    if (!beat.group_seq.fresher_than(*seen)) return;
    *seen = beat.group_seq;
  }
  e->leader = beat.leader;
  e->group_seq = beat.group_seq;
  e->seq_known = true;
  e->hops_to_leader = static_cast<std::uint16_t>(beat.hop_count + 1);
  e->last_group_hello = simulator().now();
  // The beat arrives from the live path to the leader: re-anchor upstream.
  e->clear_upstream_flags();
  h->upstream = true;
  // Relay down our own branches.
  std::vector<net::NodeId> children;
  for (net::NodeId hop : e->enabled_hops()) {
    if (hop != from) children.push_back(hop);
  }
  if (!children.empty()) {
    GrphMsg fwd{beat.group, beat.leader, beat.group_seq,
                static_cast<std::uint16_t>(beat.hop_count + 1), true,
                std::move(children)};
    broadcast_packet(fwd, 1);
  }
}

void MaodvRouter::process_grph(const net::Packet& packet, const GrphMsg& grph,
                               net::NodeId from) {
  if (grph.tree_scoped) {
    process_tree_beat(grph, from);
    return;
  }
  GroupEntry* e = mrt_.find(grph.group);

  // Flood dedup per (group, leader): only fresher sequence numbers pass.
  auto [seen, inserted] =
      grph_seen_.try_emplace(pair_key(grph.group, grph.leader), grph.group_seq);
  if (!inserted) {
    if (!grph.group_seq.fresher_than(*seen)) return;
    *seen = grph.group_seq;
  }
  if (e != nullptr && e->on_tree()) {
    if (e->is_leader) {
      // A leader never adopts leader/hop information — not even from
      // re-flooded copies of its own hello. Two distinct leaders for one
      // group trigger a merge, initiated by the lower id (documented
      // simplification of the draft's reconnection rules).
      if (grph.leader != self() && self().value() < grph.leader.value()) {
        initiate_merge(grph.group, grph.leader);
      }
    } else if (grph.leader == e->leader || !e->leader.is_valid() ||
               grph.group_seq.fresher_than(e->group_seq)) {
      e->leader = grph.leader;
      e->group_seq = grph.group_seq;
      e->seq_known = true;
      e->hops_to_leader = static_cast<std::uint16_t>(grph.hop_count + 1);
      // Upstream direction is owned by the tree-scoped beats, which carry
      // per-edge evidence; flood copies only refresh leader knowledge.
    }
  }

  if (packet.ttl > 1) {
    GrphMsg fwd = grph;
    fwd.hop_count++;
    broadcast_jittered(fwd, static_cast<std::uint8_t>(packet.ttl - 1));
  }
}

void MaodvRouter::initiate_merge(net::GroupId group, net::NodeId other_leader) {
  GroupEntry* e = mrt_.find(group);
  if (e == nullptr || !e->is_leader) return;
  if (e->join_state != JoinState::none) return;
  auto [last, inserted] = last_merge_attempt_.try_emplace(group, sim::SimTime::zero());
  if (!inserted && simulator().now() - *last < kMergeBackoff) return;
  *last = simulator().now();
  ++mcounters_.merges_initiated;
  start_join(group, /*repair=*/false, other_leader);
}

void MaodvRouter::check_group_liveness() {
  const sim::Duration limit =
      kGroupHelloInterval * static_cast<std::int64_t>(kAllowedGroupHelloLoss);
  mrt_.for_each([&](net::GroupId group, GroupEntry& e) {
    if (e.is_leader) return;
    if (e.join_state != JoinState::none) return;
    // A member that lost its last tree link entirely (failed graft,
    // cascaded prune) must keep trying to rejoin.
    if (e.is_member && !e.on_tree()) {
      start_join(group, /*repair=*/false);
      return;
    }
    if (!e.on_tree()) return;
    if (simulator().now() - e.last_group_hello <= limit) return;
    // The leader went silent: treat as a broken tree. Members repair;
    // pure routers wait to be pruned or repaired through.
    if (e.is_member) {
      const net::NodeId up = e.upstream();
      if (up.is_valid()) {
        send_mact(up, group, self(), MactMsg::Flag::prune);
        deactivate_hop(e, up);
      }
      e.last_group_hello = simulator().now();  // backoff until next sweep
      start_join(group, /*repair=*/true);
    }
  });
}

// ------------------------------------------------------------------- data

std::uint32_t MaodvRouter::send_multicast(net::GroupId group, std::uint16_t payload_bytes) {
  GroupEntry& e = mrt_.get_or_create(group);
  (void)e;
  const std::uint32_t seq = next_data_seq_[group]++;
  net::MulticastData data;
  data.group = group;
  data.origin = self();
  data.seq = seq;
  data.payload_bytes = payload_bytes;
  data.sent_at = simulator().now();
  data.hops = 0;
  seen_data_.insert(net::MsgId{self(), seq});
  if (observer() != nullptr) observer()->on_multicast_data(data, self());
  broadcast_packet(data, kDataTtl);
  return seq;
}

void MaodvRouter::process_data(const net::Packet& packet, const net::MulticastData& data,
                               net::NodeId from) {
  GroupEntry* e = mrt_.find(data.group);
  // Tree-scoped forwarding: accept only over an activated tree link.
  if (e == nullptr || !e->on_tree()) return;
  const MulticastNextHop* h = e->find_hop(from);
  if (h == nullptr || !h->enabled) {
    // The sender may wrongly believe we are its tree neighbor (asymmetric
    // state after a one-sided break). Tell it once a second at most; a
    // consistent sender treats the prune as a no-op.
    const std::uint64_t key = pair_key(data.group, from);
    auto [last, inserted] = corrective_prune_at_.try_emplace(key, sim::SimTime::zero());
    if (inserted || simulator().now() - *last >= sim::Duration::ms(1000)) {
      *last = simulator().now();
      send_mact(from, data.group, self(), MactMsg::Flag::prune);
    }
    return;
  }
  if (!seen_data_.insert(net::MsgId{data.origin, data.seq})) return;
  if (e->is_member) {
    ++mcounters_.data_delivered;
    if (observer() != nullptr) observer()->on_multicast_data(data, from);
  }
  // Relay along the remaining branches (one link-layer broadcast reaches
  // them all; non-tree neighbors reject it).
  const std::vector<net::NodeId> hops = e->enabled_hops();
  const bool has_other_branch =
      std::any_of(hops.begin(), hops.end(), [&](net::NodeId n) { return n != from; });
  if (has_other_branch && packet.ttl > 1) {
    net::MulticastData fwd = data;
    fwd.hops++;
    ++mcounters_.data_forwarded;
    broadcast_jittered(fwd, static_cast<std::uint8_t>(packet.ttl - 1),
                       sim::Duration::ms(5));
  }
}

// ------------------------------------------------------------ dispatching

void MaodvRouter::handle_multicast_packet(const net::Packet& packet, net::NodeId from) {
  std::visit(net::overloaded{
                 [&](const MactMsg& mact) { process_mact(mact, from); },
                 [&](const GrphMsg& grph) { process_grph(packet, grph, from); },
                 [&](const net::MulticastData& data) { process_data(packet, data, from); },
                 [&](const auto&) {},
             },
             packet.payload);
}

void MaodvRouter::on_neighbor_lost(net::NodeId neighbor) {
  // Collect first: the repair/prune actions below may erase MRT entries,
  // which would invalidate a live iterator.
  std::vector<std::pair<net::GroupId, bool>> affected;  // (group, was_upstream)
  mrt_.for_each([&](net::GroupId group, GroupEntry& e) {
    MulticastNextHop* h = e.find_hop(neighbor);
    if (h == nullptr) return;
    const bool was_enabled = h->enabled;
    affected.emplace_back(group, h->enabled && h->upstream);
    deactivate_hop(e, neighbor);
    // Best-effort prune toward the lost neighbor: if the break was a
    // one-sided false positive (hello loss under collisions), this makes
    // it mutual so the other side repairs instead of feeding a dead edge.
    if (was_enabled) send_mact(neighbor, group, self(), MactMsg::Flag::prune);
  });
  for (const auto& [group, was_upstream] : affected) {
    GroupEntry* e = mrt_.find(group);
    if (e == nullptr) continue;
    if (was_upstream) {
      // Downstream side of the broken link initiates the repair (paper
      // section 3: only the downstream node repairs, preventing loops).
      if (e->join_state == JoinState::none) start_join(group, /*repair=*/true);
    } else {
      maybe_self_prune(group);
    }
  }
}

}  // namespace ag::maodv
