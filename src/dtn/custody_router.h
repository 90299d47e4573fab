// DTN custody tier as a decorator over any harness::MulticastRouter. The
// wrapped protocol keeps its whole machinery; the decorator interposes on
// exactly two seams and adds one of its own:
//
//  - MAC listener: built after the inner router (whose constructor
//    registered itself with the MAC), the decorator re-registers and
//    forwards everything except CustodyHandoffMsg — the custody wire
//    message no protocol needs to understand.
//  - Router observer: set_observer() chains the decorator between router
//    and gossip agent, so every unique delivery is also taken into
//    custody before flowing up unchanged.
//  - offer_to(): the contact-driven path. On a contact (neighbor
//    appearance, reboot/rejoin, partition heal) the store's oldest batch
//    is handed to the peer as one-hop MAC unicasts; the receiver delivers
//    fresh payloads up (the gossip agent and the sink both deduplicate)
//    and takes custody itself, so payloads diffuse across disruptions.
//
// The store survives reset() — custody is the promise that a message
// outlives the disruption, so it is modeled as stable storage exactly
// like the data-plane sequence counters (see MulticastRouter::reset()).
#ifndef AG_DTN_CUSTODY_ROUTER_H
#define AG_DTN_CUSTODY_ROUTER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "dtn/custody_store.h"
#include "dtn/params.h"
#include "gossip/routing_adapter.h"
#include "harness/multicast_router.h"
#include "mac/csma_mac.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace ag::dtn {

class CustodyRouter final : public harness::MulticastRouter,
                            public mac::MacListener,
                            public gossip::RouterObserver {
 public:
  CustodyRouter(sim::Simulator& sim, mac::CsmaMac& mac,
                std::unique_ptr<harness::MulticastRouter> inner,
                const CustodyParams& params, bool gateway);

  // --- harness::MulticastRouter ---
  void start() override { inner_->start(); }
  // Volatile protocol state wipes; the custody store survives.
  void reset() override { inner_->reset(); }
  void set_observer(gossip::RouterObserver* observer) override {
    observer_ = observer;
    inner_->set_observer(this);
  }
  void join_group(net::GroupId group) override { inner_->join_group(group); }
  void leave_group(net::GroupId group) override { inner_->leave_group(group); }
  std::uint32_t send_multicast(net::GroupId group,
                               std::uint16_t payload_bytes) override;
  void add_totals(stats::NetworkTotals& totals) const override;

  // --- gossip::RoutingAdapter (pure passthrough) ---
  [[nodiscard]] net::NodeId self() const override { return inner_->self(); }
  [[nodiscard]] bool is_member(net::GroupId group) const override {
    return inner_->is_member(group);
  }
  [[nodiscard]] bool on_tree(net::GroupId group) const override {
    return inner_->on_tree(group);
  }
  [[nodiscard]] std::vector<net::NodeId> tree_neighbors(
      net::GroupId group) const override {
    return inner_->tree_neighbors(group);
  }
  void unicast(net::NodeId dest, net::Payload payload) override {
    inner_->unicast(dest, std::move(payload));
  }
  void send_to_neighbor(net::NodeId neighbor, net::Payload payload) override {
    inner_->send_to_neighbor(neighbor, std::move(payload));
  }
  void route_hint(net::NodeId dest, net::NodeId via_neighbor,
                  std::uint8_t hops) override {
    inner_->route_hint(dest, via_neighbor, hops);
  }
  [[nodiscard]] std::uint8_t route_hops(net::NodeId dest) const override {
    return inner_->route_hops(dest);
  }

  // --- mac::MacListener (custody interception, else passthrough) ---
  void on_packet_received(const net::Packet& packet, net::NodeId from) override;
  void on_unicast_failed(const net::Packet& packet, net::NodeId next_hop) override;

  // --- gossip::RouterObserver (custody tap, else passthrough) ---
  void on_multicast_data(const net::MulticastData& data, net::NodeId from) override;
  void on_tree_neighbor_added(net::GroupId group, net::NodeId neighbor,
                              std::uint16_t member_distance_hint) override {
    if (observer_ != nullptr) {
      observer_->on_tree_neighbor_added(group, neighbor, member_distance_hint);
    }
  }
  void on_tree_neighbor_removed(net::GroupId group, net::NodeId neighbor) override {
    if (observer_ != nullptr) observer_->on_tree_neighbor_removed(group, neighbor);
  }
  void on_self_membership_changed(net::GroupId group, bool member) override {
    if (observer_ != nullptr) observer_->on_self_membership_changed(group, member);
  }
  void on_member_learned(net::GroupId group, net::NodeId member,
                         std::uint8_t hops) override {
    if (observer_ != nullptr) observer_->on_member_learned(group, member, hops);
  }
  void on_gossip_packet(const net::Packet& packet, net::NodeId from) override {
    if (observer_ != nullptr) observer_->on_gossip_packet(packet, from);
  }

  // --- custody (contact hooks and introspection) ---
  // Hands the store's oldest offer-batch to `peer` as one-hop unicasts.
  void offer_to(net::NodeId peer);

  [[nodiscard]] CustodyStore& store() { return store_; }
  [[nodiscard]] const CustodyStore& store() const { return store_; }
  [[nodiscard]] harness::MulticastRouter& inner() { return *inner_; }
  [[nodiscard]] bool gateway() const { return gateway_; }

  struct Counters {
    std::uint64_t offers_sent{0};       // handoff packets put on the air
    std::uint64_t offers_failed{0};     // handoffs whose MAC retries ran out
    std::uint64_t accepted_fresh{0};    // received handoffs new to this node
    std::uint64_t accepted_duplicate{0};
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  sim::Simulator& sim_;
  mac::CsmaMac& mac_;
  std::unique_ptr<harness::MulticastRouter> inner_;
  mac::MacListener* inner_listener_;  // the inner router as a MAC listener
  bool gateway_;
  CustodyStore store_;
  gossip::RouterObserver* observer_{nullptr};
  net::DenseSet seen_;  // classifies received handoffs fresh/duplicate
  std::vector<net::MulticastData> offer_scratch_;
  Counters counters_;
};

}  // namespace ag::dtn

#endif  // AG_DTN_CUSTODY_ROUTER_H
