// ODMRP: mesh-based on-demand multicast. Active sources periodically
// flood Join Queries; members answer with Join Replies that travel back
// hop-by-hop, turning the nodes they traverse into the forwarding group.
// Any forwarding-group node rebroadcasts non-duplicate data, so the mesh
// offers redundant paths a single tree cannot — at the price of the
// refresh floods (the trade-off the AG paper discusses in section 2).
//
// Derives from AodvRouter for unicast routing (cached gossip and gossip
// replies need it) and completes gossip::RoutingAdapter so Anonymous
// Gossip layers over the mesh exactly as it does over the MAODV tree —
// the generalization the paper's section 5.5 proposes. The "tree
// neighbors" exposed to the walk are the live mesh peers (neighbors known
// to be members or forwarding-group nodes).
#ifndef AG_ODMRP_ODMRP_ROUTER_H
#define AG_ODMRP_ODMRP_ROUTER_H

#include <cstdint>

#include "aodv/aodv_router.h"
#include "net/data.h"
#include "net/dense_map.h"
#include "net/node_table.h"
#include "odmrp/messages.h"
#include "odmrp/params.h"

namespace ag::odmrp {

class OdmrpRouter final : public aodv::AodvRouter {
 public:
  OdmrpRouter(sim::Simulator& sim, mac::CsmaMac& mac, net::NodeId self, sim::Rng rng);

  void start() override;
  void reset() override;

  void join_group(net::GroupId group) override;
  void leave_group(net::GroupId group) override;
  std::uint32_t send_multicast(net::GroupId group,
                               std::uint16_t payload_bytes) override;

  [[nodiscard]] bool is_forwarding(net::GroupId group) const;
  [[nodiscard]] std::vector<net::NodeId> mesh_neighbors(net::GroupId group) const;

  struct OdmrpCounters {
    std::uint64_t queries_sent{0};
    std::uint64_t replies_sent{0};
    std::uint64_t data_forwarded{0};
    std::uint64_t data_delivered{0};
  };
  [[nodiscard]] const OdmrpCounters& odmrp_counters() const { return ocounters_; }

  // harness::MulticastRouter stats hook.
  void add_totals(stats::NetworkTotals& totals) const override {
    totals.rreq_originated += counters().rreq_originated;
    totals.rerr_sent += counters().rerr_sent;
    totals.data_forwarded += ocounters_.data_forwarded;
  }

  // --- gossip::RoutingAdapter (the multicast half) ---
  [[nodiscard]] bool is_member(net::GroupId group) const override {
    return members_.contains(group);
  }
  [[nodiscard]] bool on_tree(net::GroupId group) const override {
    return is_member(group) || is_forwarding(group);
  }
  [[nodiscard]] std::vector<net::NodeId> tree_neighbors(net::GroupId group) const override {
    return mesh_neighbors(group);
  }

 protected:
  void handle_multicast_packet(const net::Packet& packet, net::NodeId from) override;

 private:
  struct GroupState {
    bool member{false};
    // Per active source: freshest query seq and the neighbor leading back.
    struct SourcePath {
      std::uint32_t query_seq{0};
      net::NodeId upstream{net::NodeId::invalid()};
      std::uint32_t replied_seq{0};  // last query answered with a JR
    };
    net::NodeTable<SourcePath> sources;
    sim::SimTime forwarding_until;               // FG_FLAG soft state
    net::NodeTable<sim::SimTime> mesh_peers;  // for gossip walks
    // Source-side state.
    std::uint32_t next_data_seq{0};
    std::uint32_t next_query_seq{1};
    sim::SimTime last_data_sent;
  };

  void process_query(const net::Packet& packet, const JoinQueryMsg& query,
                     net::NodeId from);
  void process_reply(const JoinReplyMsg& reply, net::NodeId from);
  void process_data(const net::Packet& packet, const net::MulticastData& data,
                    net::NodeId from);
  void send_reply(net::GroupId group, GroupState& gs, net::NodeId source);
  void refresh_tick();
  void note_mesh_peer(net::GroupId group, GroupState& gs, net::NodeId peer);
  void expire_soft_state(net::GroupId group, GroupState& gs);
  GroupState& state_for(net::GroupId group);

  net::IdSet<net::GroupId> members_;
  net::NodeTable<GroupState, net::GroupId> groups_;
  net::DedupWindow seen_data_;
  // Flood dedup for queries: (group, source) -> freshest query_seq.
  net::DenseMap<std::uint32_t> query_seen_;
  sim::PeriodicTimer refresh_timer_;
  OdmrpCounters ocounters_;
};

}  // namespace ag::odmrp

#endif  // AG_ODMRP_ODMRP_ROUTER_H
