// Blind-flooding multicast (the related-work baseline of paper section 6,
// Ho et al. [13]): every node rebroadcasts every data packet once. No
// routing state, maximal robustness, maximal cost. Implements the gossip
// RoutingAdapter degenerately (no tree, no unicast routing) to prove the
// adapter abstraction and to serve as the ablation baseline.
//
// With `gossip_links` set (the flooding_gossip protocol), the router
// additionally grows the minimum adapter surface Anonymous Gossip needs
// to ride on flooding: a heard-neighbor table (recently-overheard
// transmitters stand in for tree neighbors — on a relay-everything
// substrate every neighbor is a peer), and a reverse-path hint table
// (installed by the gossip agent as walks pass) that routes reply
// unicasts hop-by-hop back to their initiator. Plain flooding (the flag
// off) builds none of it and stays byte-identical to the historical
// baseline.
#ifndef AG_FLOOD_FLOOD_ROUTER_H
#define AG_FLOOD_FLOOD_ROUTER_H

#include <cstdint>

#include "gossip/routing_adapter.h"
#include "harness/multicast_router.h"
#include "mac/csma_mac.h"
#include "net/data.h"
#include "net/dense_map.h"
#include "net/node_table.h"
#include "net/packet.h"

namespace ag::flood {

class FloodRouter final : public mac::MacListener, public harness::MulticastRouter {
 public:
  static constexpr std::uint8_t kDataTtl = 32;
  // A transmitter counts as a live neighbor this long after last heard.
  static constexpr double kNeighborTtlS = 10.0;

  FloodRouter(mac::CsmaMac& mac, net::NodeId self, bool gossip_links = false);

  void set_observer(gossip::RouterObserver* observer) override {
    observer_ = observer;
  }

  // Crash support: membership, the dedup window and the gossip link
  // state are volatile; next_seq_ survives (see
  // harness::MulticastRouter::reset()).
  void reset() override {
    members_.clear();
    seen_.clear();
    heard_.clear();
    hints_.clear();
  }

  void join_group(net::GroupId group) override;
  void leave_group(net::GroupId group) override;
  std::uint32_t send_multicast(net::GroupId group,
                               std::uint16_t payload_bytes) override;

  struct Counters {
    std::uint64_t rebroadcasts{0};
    std::uint64_t delivered{0};
    std::uint64_t duplicates{0};
    // gossip_links only: reply unicasts relayed along reverse-path hints.
    std::uint64_t gossip_relayed{0};
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // harness::MulticastRouter stats hook: rebroadcasts (and hint-routed
  // gossip relays) are the flooding analogue of tree/mesh forwarding.
  void add_totals(stats::NetworkTotals& totals) const override {
    totals.data_forwarded += counters_.rebroadcasts + counters_.gossip_relayed;
  }

  // mac::MacListener:
  void on_packet_received(const net::Packet& packet, net::NodeId from) override;
  void on_unicast_failed(const net::Packet&, net::NodeId) override {}

  // gossip::RoutingAdapter (degenerate without gossip_links; heard-
  // neighbor peers and hint-routed unicasts with it).
  [[nodiscard]] net::NodeId self() const override { return self_; }
  [[nodiscard]] bool is_member(net::GroupId group) const override {
    return members_.contains(group);
  }
  [[nodiscard]] bool on_tree(net::GroupId) const override { return false; }
  [[nodiscard]] std::vector<net::NodeId> tree_neighbors(net::GroupId) const override;
  void unicast(net::NodeId dest, net::Payload payload) override;
  void send_to_neighbor(net::NodeId neighbor, net::Payload payload) override;
  void route_hint(net::NodeId dest, net::NodeId via_neighbor,
                  std::uint8_t hops) override;
  [[nodiscard]] std::uint8_t route_hops(net::NodeId dest) const override;

 private:
  struct Hint {
    net::NodeId via;
    std::uint8_t hops{0};
  };

  // Live next hop toward `dest`: the node itself when recently heard,
  // else a recently-heard hint. invalid() when neither is live.
  [[nodiscard]] net::NodeId next_hop_for(net::NodeId dest) const;
  void handle_gossip_traffic(const net::Packet& packet, net::NodeId from);

  mac::CsmaMac& mac_;
  net::NodeId self_;
  const bool gossip_links_;
  gossip::RouterObserver* observer_{nullptr};
  net::IdSet<net::GroupId> members_;
  net::NodeTable<std::uint32_t, net::GroupId> next_seq_;
  net::DedupWindow seen_;
  net::NodeTable<sim::SimTime> heard_;  // gossip_links: last frame per neighbor
  net::NodeTable<Hint> hints_;          // gossip_links: reverse-path hints
  Counters counters_;
};

}  // namespace ag::flood

#endif  // AG_FLOOD_FLOOD_ROUTER_H
