#include "gossip/gossip_agent.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace ag::gossip {

GossipAgent::GossipAgent(sim::Simulator& sim, RoutingAdapter& adapter,
                         GossipParams params, sim::Rng rng)
    : sim_{sim},
      adapter_{adapter},
      params_{params},
      rng_{rng},
      nm_{[this](net::GroupId g, net::NodeId n, std::uint16_t v) {
        ++counters_.nm_updates_sent;
        adapter_.send_to_neighbor(n, NearestMemberMsg{g, v});
      }},
      round_timer_{sim, [this] { run_round(); }, sim::EventCategory::router} {}

void GossipAgent::start() {
  if (!params_.enabled) return;
  round_timer_.start(params_.round_interval, &rng_, params_.round_jitter);
}

void GossipAgent::reset() {
  round_timer_.stop();
  groups_.clear();
  nm_.clear();
  rounds_since_nm_refresh_ = 0;
}

GossipAgent::GroupState& GossipAgent::state_for(net::GroupId group) {
  auto& state = groups_[group];
  if (state == nullptr) state = std::make_unique<GroupState>();
  return *state;
}

const LostTable* GossipAgent::lost_table(net::GroupId group) const {
  const auto* state = groups_.find(group);
  return state == nullptr ? nullptr : &(*state)->lost;
}
const HistoryTable* GossipAgent::history(net::GroupId group) const {
  const auto* state = groups_.find(group);
  return state == nullptr ? nullptr : &(*state)->history;
}
const MemberCache* GossipAgent::member_cache(net::GroupId group) const {
  const auto* state = groups_.find(group);
  return state == nullptr ? nullptr : &(*state)->cache;
}

// ------------------------------------------------------------- data path

void GossipAgent::on_multicast_data(const net::MulticastData& data, net::NodeId) {
  accept_data(data.group, data, /*via_gossip=*/false);
}

void GossipAgent::accept_data(net::GroupId group, const net::MulticastData& data,
                              bool via_gossip) {
  GroupState& gs = state_for(group);
  const ReceiveOutcome outcome = gs.lost.on_data(net::MsgId{data.origin, data.seq});
  if (outcome == ReceiveOutcome::duplicate) {
    ++counters_.duplicates;
    return;
  }
  gs.history.push(data);
  ++counters_.delivered_unique;
  if (via_gossip) {
    ++counters_.delivered_via_gossip;
    ++counters_.replies_useful;
  }
  if (deliver_) deliver_(data, via_gossip);
}

// ----------------------------------------------------------- observer API

void GossipAgent::on_tree_neighbor_added(net::GroupId group, net::NodeId neighbor,
                                         std::uint16_t member_distance_hint) {
  nm_.on_neighbor_added(group, neighbor, member_distance_hint);
}

void GossipAgent::on_tree_neighbor_removed(net::GroupId group, net::NodeId neighbor) {
  nm_.on_neighbor_removed(group, neighbor);
}

void GossipAgent::on_self_membership_changed(net::GroupId group, bool member) {
  nm_.on_self_membership(group, member);
  if (member) {
    state_for(group);  // allocate tables up front
  } else {
    // Dynamic membership: a departing member drops its per-group gossip
    // state, so a later rejoin starts cold instead of pulling the whole
    // gap it was unsubscribed for.
    groups_.erase(group);
  }
}

void GossipAgent::on_member_learned(net::GroupId group, net::NodeId member,
                                    std::uint8_t hops) {
  if (member == adapter_.self()) return;
  state_for(group).cache.observe(member, hops, sim_.now());
}

// ---------------------------------------------------------------- rounds

void GossipAgent::run_round() {
  if (++rounds_since_nm_refresh_ >= kNmRefreshRounds) {
    rounds_since_nm_refresh_ = 0;
    nm_.republish_all();
  }
  const bool aging = params_.member_cache_ttl > sim::Duration::zero();
  groups_.for_each([&](net::GroupId group, std::unique_ptr<GroupState>& gs) {
    if (aging) gs->cache.expire_older_than(sim_.now() - params_.member_cache_ttl);
    if (!adapter_.is_member(group)) return;
    ++counters_.rounds;
    gossip_once(group, *gs);
  });
}

GossipMsg GossipAgent::build_message(net::GroupId group, GroupState& gs) const {
  GossipMsg msg;
  msg.group = group;
  msg.initiator = adapter_.self();
  msg.hops_walked = 0;
  msg.pull = params_.exchange_mode != ExchangeMode::push;
  if (msg.pull) {
    msg.lost = gs.lost.most_recent(kMaxLostInMessage);
    msg.expected = gs.lost.expectations();
  }
  if (params_.exchange_mode != ExchangeMode::pull) {
    msg.pushed = gs.history.recent(params_.push_budget);
  }
  return msg;
}

void GossipAgent::gossip_once(net::GroupId group, GroupState& gs) {
  const bool prefer_anon = rng_.bernoulli(params_.p_anon);
  const bool have_cache = gs.cache.size() > 0;
  const bool have_tree = !adapter_.tree_neighbors(group).empty();

  if ((prefer_anon && have_tree) || (!have_cache && have_tree)) {
    GossipMsg msg = build_message(group, gs);
    start_anonymous_walk(group, std::move(msg));
    return;
  }
  if (have_cache) {
    GossipMsg msg = build_message(group, gs);
    msg.cached = true;
    const net::NodeId target = gs.cache.pick_random(rng_);
    if (!target.is_valid()) return;
    ++counters_.cached_initiated;
    gs.cache.note_gossiped(target, sim_.now());
    adapter_.unicast(target, std::move(msg));
  }
}

void GossipAgent::start_anonymous_walk(net::GroupId group, GossipMsg msg) {
  const net::NodeId hop = choose_hop(group, net::NodeId::invalid());
  if (!hop.is_valid()) return;
  ++counters_.walks_initiated;
  msg.hops_walked = 1;
  adapter_.send_to_neighbor(hop, std::move(msg));
}

net::NodeId GossipAgent::choose_hop(net::GroupId group, net::NodeId exclude) {
  std::vector<net::NodeId> hops = adapter_.tree_neighbors(group);
  std::erase(hops, exclude);
  if (hops.empty()) return net::NodeId::invalid();
  if (!params_.locality_bias || params_.locality_alpha == 0.0) {
    return hops[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(hops.size()) - 1))];
  }
  // Smaller nearest-member distance => larger weight (paper section 4.2).
  std::vector<double> weights;
  weights.reserve(hops.size());
  for (net::NodeId h : hops) {
    const std::uint16_t d = nm_.value_for(group, h);
    // Unknown subtrees keep a small but non-zero chance, preserving the
    // paper's "distant nodes occasionally" requirement.
    const double dist = d == NearestMemberTracker::kInfinity ? 16.0 : std::max<double>(d, 1.0);
    weights.push_back(1.0 / std::pow(dist, params_.locality_alpha));
  }
  return hops[rng_.weighted_index(weights)];
}

// ------------------------------------------------------------- reception

void GossipAgent::on_gossip_packet(const net::Packet& packet, net::NodeId from) {
  std::visit(net::overloaded{
                 [&](const GossipMsg& msg) {
                   if (msg.cached) {
                     // Unicast straight to us: act as the acceptor — unless
                     // we already left the group and a peer's stale member
                     // cache is still pointing at us (churn).
                     if (!adapter_.is_member(msg.group)) return;
                     ++counters_.walks_accepted;
                     handle_request(msg);
                   } else {
                     handle_walk(msg, from);
                   }
                 },
                 [&](const GossipReplyMsg& reply) {
                   // Drop replies that arrive after we left the group;
                   // rebuilding state for them would undo the departure.
                   if (adapter_.is_member(reply.group)) handle_reply(reply);
                 },
                 [&](const NearestMemberMsg& nm) {
                   nm_.on_update_received(nm.group, from, nm.distance_hops);
                 },
                 [&](const auto&) {},
             },
             packet.payload);
}

void GossipAgent::handle_walk(const GossipMsg& msg, net::NodeId from) {
  if (msg.initiator == adapter_.self()) return;  // walk looped back; drop
  // Remember the walk's reverse path so the reply needs no discovery.
  adapter_.route_hint(msg.initiator, from, msg.hops_walked);

  const bool member = adapter_.is_member(msg.group);
  if (member && rng_.bernoulli(params_.p_accept)) {
    ++counters_.walks_accepted;
    handle_request(msg);
    return;
  }
  if (msg.hops_walked >= params_.walk_ttl) {
    if (member) {
      ++counters_.walks_accepted;
      handle_request(msg);
    } else {
      ++counters_.walks_dropped;
    }
    return;
  }
  forward_walk(msg, from);
}

void GossipAgent::forward_walk(const GossipMsg& msg, net::NodeId from) {
  const net::NodeId next = choose_hop(msg.group, from);
  if (!next.is_valid()) {
    // Dead end: a member leaf must accept (paper: the walk ends at it).
    if (adapter_.is_member(msg.group)) {
      ++counters_.walks_accepted;
      handle_request(msg);
    } else {
      ++counters_.walks_dropped;
    }
    return;
  }
  GossipMsg fwd = msg;
  fwd.hops_walked++;
  ++counters_.walks_forwarded;
  adapter_.send_to_neighbor(next, std::move(fwd));
}

void GossipAgent::handle_request(const GossipMsg& msg) {
  if (msg.initiator == adapter_.self()) return;
  GroupState& gs = state_for(msg.group);
  ++counters_.requests_handled;

  // Push / push-pull: the message itself carries data for us.
  for (const net::MulticastData& d : msg.pushed) {
    ++counters_.replies_received;  // gossip-carried payload (goodput basis)
    accept_data(msg.group, d, /*via_gossip=*/true);
  }
  if (!msg.pull) {
    const std::uint16_t walk_hops =
        msg.hops_walked > 0 ? msg.hops_walked : adapter_.route_hops(msg.initiator);
    gs.cache.observe(msg.initiator, walk_hops, sim_.now());
    return;
  }

  // Pull mode (section 4.4): collect everything the initiator asked for
  // that we hold, then push messages past its expected sequence numbers.
  std::vector<net::MulticastData> found;
  for (const net::MsgId& id : msg.lost) {
    if (found.size() >= params_.reply_budget) break;
    if (const net::MulticastData* d = gs.history.find(id)) found.push_back(*d);
  }
  auto initiator_expected = [&msg](net::NodeId sender) -> std::uint32_t {
    for (const SenderExpectation& exp : msg.expected) {
      if (exp.sender == sender) return exp.expected_seq;
    }
    // The initiator does not even know this sender exists (it received
    // nothing from it yet): everything we hold is news to it.
    return 0;
  };
  for (const SenderExpectation& our_exp : gs.lost.expectations()) {
    if (found.size() >= params_.reply_budget) break;
    if (our_exp.sender == msg.initiator) continue;  // it has its own messages
    for (net::MulticastData d :
         gs.history.collect_from(our_exp.sender, initiator_expected(our_exp.sender),
                                 params_.reply_budget - found.size())) {
      const bool already = std::any_of(
          found.begin(), found.end(), [&](const net::MulticastData& f) {
            return f.origin == d.origin && f.seq == d.seq;
          });
      if (!already) found.push_back(d);
    }
  }

  // Update the member cache with the initiator: distance comes from the
  // walk length (anonymous) or the unicast route (cached).
  const std::uint16_t hops =
      msg.hops_walked > 0 ? msg.hops_walked : adapter_.route_hops(msg.initiator);
  gs.cache.observe(msg.initiator, hops, sim_.now());

  // Space replies out a little so a burst does not collide with itself.
  sim::Duration delay = sim::Duration::zero();
  for (const net::MulticastData& d : found) {
    ++counters_.replies_sent;
    GossipReplyMsg reply{msg.group, adapter_.self(), d};
    sim_.schedule_after(
        delay, [this, to = msg.initiator, reply] { adapter_.unicast(to, reply); },
        sim::EventCategory::router);
    delay = delay + kReplySpacing +
            sim::Duration::us(rng_.uniform_int(0, 2000));
  }
}

void GossipAgent::handle_reply(const GossipReplyMsg& reply) {
  ++counters_.replies_received;
  GroupState& gs = state_for(reply.group);
  const std::uint16_t hops = adapter_.route_hops(reply.responder);
  gs.cache.observe(reply.responder, hops, sim_.now());
  accept_data(reply.group, reply.data, /*via_gossip=*/true);
}

}  // namespace ag::gossip
