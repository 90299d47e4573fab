// Test utility: assembles full protocol stacks (radio/MAC/router/gossip)
// on a hand-placed static topology, so routing and gossip tests can build
// lines, grids and the paper's Fig. 1 tree deterministically. Routers are
// built through the harness ProtocolRegistry — the same factories the
// Network uses — so any registered protocol can be exercised on a static
// topology by setting StackOptions::protocol.
#ifndef AG_TESTS_TESTUTIL_STACK_FIXTURE_H
#define AG_TESTS_TESTUTIL_STACK_FIXTURE_H

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "gossip/gossip_agent.h"
#include "gossip/routing_adapter.h"
#include "harness/protocol_registry.h"
#include "mac/csma_mac.h"
#include "maodv/maodv_router.h"
#include "mobility/static_mobility.h"
#include "phy/channel.h"
#include "phy/radio.h"
#include "sim/simulator.h"

namespace ag::testutil {

inline constexpr net::GroupId kGroup{1};

struct StackOptions {
  double range_m{100.0};
  std::uint64_t seed{42};
  harness::Protocol protocol{harness::Protocol::maodv_gossip};
  bool gossip_enabled{true};
  gossip::GossipParams gossip{};
};

class StaticNetwork {
 public:
  StaticNetwork(std::vector<mobility::Vec2> positions, StackOptions options = {})
      : sim_{options.seed},
        mobility_{std::move(positions)},
        channel_{sim_, mobility_, phy::PhyParams{options.range_m}} {
    const harness::ProtocolEntry& entry =
        harness::ProtocolRegistry::instance().entry(options.protocol);
    config_.protocol = options.protocol;
    config_.seed = options.seed;
    config_.gossip = options.gossip;
    config_.gossip.enabled = options.gossip_enabled && entry.gossip_capable;
    const std::size_t n = mobility_.node_count();
    for (std::size_t i = 0; i < n; ++i) {
      auto node = std::make_unique<Node>();
      const net::NodeId id{static_cast<std::uint32_t>(i)};
      node->radio = std::make_unique<phy::Radio>(channel_, i);
      node->mac = std::make_unique<mac::CsmaMac>(sim_, *node->radio, channel_, id,
                                                 mac::MacParams{},
                                                 sim_.rng().stream("mac", i));
      node->router = harness::ProtocolRegistry::instance().build(
          harness::RouterContext{sim_, *node->mac, id, i, config_});
      node->agent = std::make_unique<gossip::GossipAgent>(
          sim_, *node->router, config_.gossip, sim_.rng().stream("gossip", i));
      node->router->set_observer(node->agent.get());
      node->router->start();
      node->agent->start();
      nodes_.push_back(std::move(node));
    }
  }

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] phy::Channel& channel() { return channel_; }
  [[nodiscard]] mobility::StaticMobility& mobility() { return mobility_; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  // The protocol-agnostic router surface (join/leave/send/adapter).
  [[nodiscard]] harness::MulticastRouter& multicast_router(std::size_t i) {
    return *nodes_[i]->router;
  }
  // Typed view; nullptr when node i's router is a different type.
  template <typename Router>
  [[nodiscard]] Router* router_as(std::size_t i) {
    return dynamic_cast<Router*>(nodes_[i]->router.get());
  }
  // MAODV view — the fixture's historical accessor; valid only for the
  // (default) maodv-family protocols.
  [[nodiscard]] maodv::MaodvRouter& router(std::size_t i) {
    maodv::MaodvRouter* r = router_as<maodv::MaodvRouter>(i);
    if (r == nullptr) {
      throw std::logic_error("StaticNetwork::router(i) requires a "
                             "maodv-family protocol; use router_as<T>");
    }
    return *r;
  }
  [[nodiscard]] gossip::GossipAgent& agent(std::size_t i) { return *nodes_[i]->agent; }
  [[nodiscard]] mac::CsmaMac& mac(std::size_t i) { return *nodes_[i]->mac; }

  void run_for(double seconds) {
    sim_.run_until(sim_.now() + sim::Duration::seconds(seconds));
  }

  // Joins each listed node to the test group, spaced 100 ms apart, then
  // settles the tree/mesh.
  void join_all(const std::vector<std::size_t>& members, double settle_s = 10.0) {
    double delay = 0.0;
    for (std::size_t m : members) {
      sim_.schedule_after(sim::Duration::seconds(delay),
                          [this, m] { multicast_router(m).join_group(kGroup); });
      delay += 0.1;
    }
    run_for(settle_s);
  }

  // True when every listed member reports itself on the distribution
  // structure (tree or mesh) through the protocol-agnostic adapter.
  [[nodiscard]] bool all_on_tree(const std::vector<std::size_t>& members) {
    for (std::size_t m : members) {
      if (!multicast_router(m).on_tree(kGroup)) return false;
    }
    return true;
  }

  // Number of distinct leaders currently claimed (MAODV-family only).
  [[nodiscard]] int leader_count() {
    int count = 0;
    for (std::size_t i = 0; i < size(); ++i) {
      const maodv::MaodvRouter* r = router_as<maodv::MaodvRouter>(i);
      if (r == nullptr) continue;
      const maodv::GroupEntry* e = r->group_entry(kGroup);
      if (e != nullptr && e->is_leader) ++count;
    }
    return count;
  }

 private:
  struct Node {
    std::unique_ptr<phy::Radio> radio;
    std::unique_ptr<mac::CsmaMac> mac;
    std::unique_ptr<harness::MulticastRouter> router;
    std::unique_ptr<gossip::GossipAgent> agent;
  };

  harness::ScenarioConfig config_;
  sim::Simulator sim_;
  mobility::StaticMobility mobility_;
  phy::Channel channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

// Records the gossip-layer packets (walks, replies, nearest-member
// updates) a router hands up to its observer. Installed with
// router.set_observer(&recorder) it stands in for the node's gossip agent,
// so the recorded packets are exactly what the agent would have received;
// every other router event is ignored.
class GossipPacketRecorder final : public gossip::RouterObserver {
 public:
  void on_multicast_data(const net::MulticastData&, net::NodeId) override {}
  void on_tree_neighbor_added(net::GroupId, net::NodeId, std::uint16_t) override {}
  void on_tree_neighbor_removed(net::GroupId, net::NodeId) override {}
  void on_self_membership_changed(net::GroupId, bool) override {}
  void on_member_learned(net::GroupId, net::NodeId, std::uint8_t) override {}
  void on_gossip_packet(const net::Packet& packet, net::NodeId) override {
    packets.push_back(packet);
  }

  std::vector<net::Packet> packets;
};

// Positions for a line of n nodes spaced `spacing` meters apart.
inline std::vector<mobility::Vec2> line_positions(std::size_t n, double spacing) {
  std::vector<mobility::Vec2> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({static_cast<double>(i) * spacing, 0.0});
  }
  return out;
}

}  // namespace ag::testutil

#endif  // AG_TESTS_TESTUTIL_STACK_FIXTURE_H
