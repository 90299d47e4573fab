// Base of the router decorators (dtn::CustodyRouter,
// faults::AdversaryRouter): a MulticastRouter that wraps another and passes
// every call on unchanged, at the three seams a decorator can interpose on.
//
//  - Harness and gossip calls (MulticastRouter, gossip::RoutingAdapter)
//    go down to the inner router.
//  - MAC events (mac::MacListener): the inner router registered itself
//    with the MAC in its constructor; the decorator takes its place and
//    forwards to it.
//  - Router events (gossip::RouterObserver): set_observer() chains the
//    decorator between the inner router and the observer (the gossip
//    agent), and forwards every event up.
//
// A decorator overrides only the calls it changes and passes the rest on
// through RouterDecorator::. Decorators stack: the outer one wraps the
// inner one like any other router.
#ifndef AG_HARNESS_ROUTER_DECORATOR_H
#define AG_HARNESS_ROUTER_DECORATOR_H

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "gossip/routing_adapter.h"
#include "harness/multicast_router.h"
#include "mac/csma_mac.h"
#include "net/packet.h"

namespace ag::harness {

class RouterDecorator : public MulticastRouter,
                        public mac::MacListener,
                        public gossip::RouterObserver {
 public:
  RouterDecorator(mac::CsmaMac& mac, std::unique_ptr<MulticastRouter> inner)
      : inner_{std::move(inner)},
        inner_listener_{dynamic_cast<mac::MacListener*>(inner_.get())} {
    mac.set_listener(this);
  }
  // The MAC and the inner router hold this object's address.
  RouterDecorator(const RouterDecorator&) = delete;
  RouterDecorator& operator=(const RouterDecorator&) = delete;

  [[nodiscard]] MulticastRouter& inner() { return *inner_; }

  // --- MulticastRouter ---
  void start() override { inner_->start(); }
  void reset() override { inner_->reset(); }
  void set_observer(gossip::RouterObserver* observer) override {
    observer_ = observer;
    inner_->set_observer(this);
  }
  void join_group(net::GroupId group) override { inner_->join_group(group); }
  void leave_group(net::GroupId group) override { inner_->leave_group(group); }
  std::uint32_t send_multicast(net::GroupId group, std::uint16_t payload_bytes) override {
    return inner_->send_multicast(group, payload_bytes);
  }
  void add_totals(stats::NetworkTotals& totals) const override { inner_->add_totals(totals); }

  // --- gossip::RoutingAdapter ---
  [[nodiscard]] net::NodeId self() const override { return inner_->self(); }
  [[nodiscard]] bool is_member(net::GroupId group) const override {
    return inner_->is_member(group);
  }
  [[nodiscard]] bool on_tree(net::GroupId group) const override {
    return inner_->on_tree(group);
  }
  [[nodiscard]] std::vector<net::NodeId> tree_neighbors(net::GroupId group) const override {
    return inner_->tree_neighbors(group);
  }
  void unicast(net::NodeId dest, net::Payload payload) override {
    inner_->unicast(dest, std::move(payload));
  }
  void send_to_neighbor(net::NodeId neighbor, net::Payload payload) override {
    inner_->send_to_neighbor(neighbor, std::move(payload));
  }
  void route_hint(net::NodeId dest, net::NodeId via_neighbor, std::uint8_t hops) override {
    inner_->route_hint(dest, via_neighbor, hops);
  }
  [[nodiscard]] std::uint8_t route_hops(net::NodeId dest) const override {
    return inner_->route_hops(dest);
  }

  // --- mac::MacListener ---
  void on_packet_received(const net::Packet& packet, net::NodeId from) override {
    if (inner_listener_ != nullptr) inner_listener_->on_packet_received(packet, from);
  }
  void on_unicast_failed(const net::Packet& packet, net::NodeId next_hop) override {
    if (inner_listener_ != nullptr) inner_listener_->on_unicast_failed(packet, next_hop);
  }

  // --- gossip::RouterObserver ---
  void on_multicast_data(const net::MulticastData& data, net::NodeId from) override {
    if (observer_ != nullptr) observer_->on_multicast_data(data, from);
  }
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
  void on_member_learned(net::GroupId group, net::NodeId member, std::uint8_t hops) override {
    if (observer_ != nullptr) observer_->on_member_learned(group, member, hops);
  }
  void on_gossip_packet(const net::Packet& packet, net::NodeId from) override {
    if (observer_ != nullptr) observer_->on_gossip_packet(packet, from);
  }

 private:
  std::unique_ptr<MulticastRouter> inner_;
  mac::MacListener* inner_listener_;  // the inner router as a MAC listener
  gossip::RouterObserver* observer_{nullptr};
};

}  // namespace ag::harness

#endif  // AG_HARNESS_ROUTER_DECORATOR_H
