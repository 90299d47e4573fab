// The Anonymous Gossip agent (paper section 4): runs the periodic gossip
// rounds at members, propagates anonymous walks at tree routers, answers
// pull requests from the history table, and recovers losses from gossip
// replies. Sits between the application and any multicast routing
// protocol implementing gossip::RoutingAdapter.
#ifndef AG_GOSSIP_GOSSIP_AGENT_H
#define AG_GOSSIP_GOSSIP_AGENT_H

#include <cstdint>
#include <functional>
#include <memory>

#include "gossip/history_table.h"
#include "gossip/lost_table.h"
#include "gossip/member_cache.h"
#include "gossip/messages.h"
#include "gossip/nearest_member.h"
#include "gossip/params.h"
#include "gossip/routing_adapter.h"
#include "net/node_table.h"
#include "sim/rng.h"
#include "sim/timer.h"

namespace ag::gossip {

class GossipAgent final : public RouterObserver {
 public:
  GossipAgent(sim::Simulator& sim, RoutingAdapter& adapter, GossipParams params,
              sim::Rng rng);

  // Application-facing delivery of unique data messages (both the normal
  // multicast path and gossip recoveries), in arrival order.
  using DeliverFn = std::function<void(const net::MulticastData&, bool via_gossip)>;
  void set_deliver(DeliverFn deliver) { deliver_ = std::move(deliver); }

  // Starts the periodic gossip rounds (no-op when params.enabled is
  // false — the agent still tracks delivery for accounting).
  void start();

  // Crash support (FaultInjector, wipe policy): stops the rounds and
  // drops every group's tables and the nearest-member gradient. Counters
  // survive — they are cumulative run statistics. start() resumes.
  void reset();

  struct Counters {
    std::uint64_t delivered_unique{0};
    std::uint64_t delivered_via_gossip{0};
    std::uint64_t duplicates{0};
    std::uint64_t rounds{0};
    std::uint64_t walks_initiated{0};
    std::uint64_t cached_initiated{0};
    std::uint64_t walks_forwarded{0};
    std::uint64_t walks_accepted{0};
    std::uint64_t walks_dropped{0};
    std::uint64_t requests_handled{0};
    std::uint64_t replies_sent{0};
    std::uint64_t replies_received{0};
    std::uint64_t replies_useful{0};  // non-duplicate payloads (goodput)
    std::uint64_t nm_updates_sent{0};
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const GossipParams& params() const { return params_; }

  // Inspection hooks for tests and stats.
  [[nodiscard]] const LostTable* lost_table(net::GroupId group) const;
  [[nodiscard]] const HistoryTable* history(net::GroupId group) const;
  [[nodiscard]] const MemberCache* member_cache(net::GroupId group) const;
  [[nodiscard]] const NearestMemberTracker& nearest_member() const { return nm_; }

  // RouterObserver:
  void on_multicast_data(const net::MulticastData& data, net::NodeId from) override;
  void on_tree_neighbor_added(net::GroupId group, net::NodeId neighbor,
                              std::uint16_t member_distance_hint) override;
  void on_tree_neighbor_removed(net::GroupId group, net::NodeId neighbor) override;
  void on_self_membership_changed(net::GroupId group, bool member) override;
  void on_member_learned(net::GroupId group, net::NodeId member,
                         std::uint8_t hops) override;
  void on_gossip_packet(const net::Packet& packet, net::NodeId from) override;

 private:
  struct GroupState {
    LostTable lost;
    HistoryTable history;
    MemberCache cache;
    GroupState() : lost{kLostTableCapacity}, history{kHistoryCapacity}, cache{kMemberCacheSize} {}
  };

  GroupState& state_for(net::GroupId group);
  void run_round();
  void gossip_once(net::GroupId group, GroupState& gs);
  [[nodiscard]] GossipMsg build_message(net::GroupId group, GroupState& gs) const;
  void start_anonymous_walk(net::GroupId group, GossipMsg msg);
  void handle_walk(const GossipMsg& msg, net::NodeId from);
  void forward_walk(const GossipMsg& msg, net::NodeId from);
  void handle_request(const GossipMsg& msg);
  void handle_reply(const GossipReplyMsg& reply);
  void accept_data(net::GroupId group, const net::MulticastData& data, bool via_gossip);
  // Weighted next-hop choice (excluding `exclude`); invalid() when empty.
  [[nodiscard]] net::NodeId choose_hop(net::GroupId group,
                                       net::NodeId exclude) ;

  sim::Simulator& sim_;
  RoutingAdapter& adapter_;
  GossipParams params_;
  sim::Rng rng_;
  DeliverFn deliver_;
  NearestMemberTracker nm_;
  // unique_ptr indirection keeps GroupState (and pointers into its
  // tables) stable across table growth.
  net::NodeTable<std::unique_ptr<GroupState>, net::GroupId> groups_;
  sim::PeriodicTimer round_timer_;
  std::uint32_t rounds_since_nm_refresh_{0};
  Counters counters_;
};

}  // namespace ag::gossip

#endif  // AG_GOSSIP_GOSSIP_AGENT_H
