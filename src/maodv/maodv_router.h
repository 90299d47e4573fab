// Multicast AODV (IETF draft-05 multicast operation, paper section 3):
// shared-tree multicast with on-demand joins (RREQ-J / RREP-J / MACT),
// group leaders emitting periodic group hellos, downstream-initiated tree
// repair, partition handling with leader delegation, and tree merging when
// two leaders discover each other. Completes the gossip RoutingAdapter
// AodvRouter starts, so Anonymous Gossip can layer on top without knowing
// MAODV internals.
#ifndef AG_MAODV_MAODV_ROUTER_H
#define AG_MAODV_MAODV_ROUTER_H

#include <cstdint>
#include <memory>

#include "aodv/aodv_router.h"
#include "maodv/messages.h"
#include "maodv/multicast_route_table.h"
#include "maodv/params.h"
#include "net/data.h"
#include "net/dense_map.h"

namespace ag::maodv {

class MaodvRouter : public aodv::AodvRouter {
 public:
  MaodvRouter(sim::Simulator& sim, mac::CsmaMac& mac, net::NodeId self, sim::Rng rng);

  void start() override;
  void reset() override;

  // --- membership / data API (used by applications) ---
  void join_group(net::GroupId group) override;
  void leave_group(net::GroupId group) override;
  // Multicasts one data packet to the group; returns its sequence number.
  std::uint32_t send_multicast(net::GroupId group,
                               std::uint16_t payload_bytes) override;

  [[nodiscard]] const GroupEntry* group_entry(net::GroupId group) const {
    return mrt_.find(group);
  }

  struct McastCounters {
    std::uint64_t joins_completed{0};
    std::uint64_t leaders_elected{0};
    std::uint64_t repairs_started{0};
    std::uint64_t repairs_succeeded{0};
    std::uint64_t partitions{0};
    std::uint64_t merges_initiated{0};
    std::uint64_t grph_sent{0};
    std::uint64_t mact_sent{0};
    std::uint64_t prunes_sent{0};
    std::uint64_t data_forwarded{0};
    std::uint64_t data_delivered{0};
  };
  [[nodiscard]] const McastCounters& mcast_counters() const { return mcounters_; }

  // harness::MulticastRouter stats hook.
  void add_totals(stats::NetworkTotals& totals) const override {
    totals.rreq_originated += counters().rreq_originated;
    totals.rerr_sent += counters().rerr_sent;
    totals.grph_sent += mcounters_.grph_sent;
    totals.mact_sent += mcounters_.mact_sent;
    totals.data_forwarded += mcounters_.data_forwarded;
    totals.repairs_started += mcounters_.repairs_started;
    totals.partitions += mcounters_.partitions;
    totals.leaders_elected += mcounters_.leaders_elected;
  }

  // --- gossip::RoutingAdapter (the multicast half) ---
  [[nodiscard]] bool is_member(net::GroupId group) const override;
  [[nodiscard]] bool on_tree(net::GroupId group) const override;
  [[nodiscard]] std::vector<net::NodeId> tree_neighbors(net::GroupId group) const override;

 protected:
  bool try_answer_join_rreq(const aodv::RreqMsg& rreq, net::NodeId from) override;
  void handle_join_rrep(const aodv::RrepMsg& rrep, net::NodeId from) override;
  void handle_multicast_packet(const net::Packet& packet, net::NodeId from) override;
  void on_neighbor_lost(net::NodeId neighbor) override;

 private:
  struct JoinCandidate {
    net::NodeId via{net::NodeId::invalid()};
    net::NodeId responder{net::NodeId::invalid()};
    net::NodeId leader{net::NodeId::invalid()};
    net::SeqNo group_seq;
    std::uint16_t total_hops_to_leader{GroupEntry::kUnknownHops};
    std::uint8_t hops_to_responder{0};
    bool responder_is_member{false};
    bool valid{false};
  };
  struct JoinAttempt {
    std::uint32_t attempts{0};
    bool repair{false};
    net::NodeId merge_target{net::NodeId::invalid()};  // valid during merges
    JoinCandidate best;
    std::unique_ptr<sim::Timer> timer;
  };
  struct GraftCandidate {
    net::NodeId via{net::NodeId::invalid()};
    sim::SimTime expires;
  };

  void start_join(net::GroupId group, bool repair,
                  net::NodeId merge_target = net::NodeId::invalid());
  void join_wait_expired(net::GroupId group);
  void finish_join_success(net::GroupId group, JoinAttempt& attempt);
  void become_leader(net::GroupId group);
  void handle_partition(net::GroupId group);
  void send_mact(net::NodeId to, net::GroupId group, net::NodeId origin,
                 MactMsg::Flag flag, std::uint8_t hop_count = 0);
  void process_mact(const MactMsg& mact, net::NodeId from);
  void process_grph(const net::Packet& packet, const GrphMsg& grph, net::NodeId from);
  void process_tree_beat(const GrphMsg& beat, net::NodeId from);
  void process_data(const net::Packet& packet, const net::MulticastData& data,
                    net::NodeId from);
  void emit_group_hellos();
  void check_group_liveness();
  void maybe_self_prune(net::GroupId group);
  void initiate_merge(net::GroupId group, net::NodeId other_leader);
  void activate_hop(GroupEntry& entry, net::NodeId hop, bool upstream,
                    std::uint16_t member_distance_hint);
  void deactivate_hop(GroupEntry& entry, net::NodeId hop);
  // Packs a (group, node) pair into a DenseMap key — graft candidates,
  // GRPH dedup and corrective-prune throttling all index on such pairs.
  [[nodiscard]] static std::uint64_t pair_key(net::GroupId g, net::NodeId node) {
    return (static_cast<std::uint64_t>(g.value()) << 32) | node.value();
  }

  MulticastRouteTable mrt_;

  net::NodeTable<JoinAttempt, net::GroupId> joins_;
  net::DenseMap<GraftCandidate> grafts_;  // key pair_key(group, origin)
  net::NodeTable<std::uint32_t, net::GroupId> next_data_seq_;
  // GRPH dedup: per (group, leader), freshest sequence seen (flood and
  // tree-scoped beats tracked separately).
  net::DenseMap<net::SeqNo> grph_seen_;
  net::DenseMap<net::SeqNo> tree_beat_seen_;
  net::NodeTable<sim::SimTime, net::GroupId> last_merge_attempt_;
  net::DenseMap<sim::SimTime> corrective_prune_at_;
  net::DedupWindow seen_data_;
  sim::PeriodicTimer grph_timer_;
  sim::PeriodicTimer liveness_timer_;
  McastCounters mcounters_;
};

}  // namespace ag::maodv

#endif  // AG_MAODV_MAODV_ROUTER_H
