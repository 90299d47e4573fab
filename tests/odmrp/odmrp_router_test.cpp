// ODMRP mesh multicast: query floods, join replies, forwarding-group soft
// state, data distribution, mesh redundancy and Anonymous Gossip layered
// over the mesh (the paper's section 5.5 proposal).
#include "odmrp/odmrp_router.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gossip/gossip_agent.h"
#include "mobility/static_mobility.h"
#include "phy/channel.h"
#include "phy/radio.h"
#include "sim/simulator.h"
#include "testutil/stack_fixture.h"

namespace ag::odmrp {
namespace {

const net::GroupId kG{1};

struct Node {
  std::unique_ptr<phy::Radio> radio;
  std::unique_ptr<mac::CsmaMac> mac;
  std::unique_ptr<OdmrpRouter> router;
  std::unique_ptr<gossip::GossipAgent> agent;
};

class OdmrpNetwork {
 public:
  explicit OdmrpNetwork(std::vector<mobility::Vec2> positions, bool gossip_on = false,
                        double range = 100.0, std::uint64_t seed = 5)
      : sim_{seed},
        mobility_{std::move(positions)},
        channel_{sim_, mobility_, phy::PhyParams{range}} {
    gossip::GossipParams gp;
    gp.enabled = gossip_on;
    gp.p_anon = 1.0;  // walks only: exercises the mesh adapter
    for (std::size_t i = 0; i < mobility_.node_count(); ++i) {
      auto n = std::make_unique<Node>();
      const net::NodeId id{static_cast<std::uint32_t>(i)};
      n->radio = std::make_unique<phy::Radio>(channel_, i);
      n->mac = std::make_unique<mac::CsmaMac>(sim_, *n->radio, channel_, id,
                                              mac::MacParams{},
                                              sim_.rng().stream("mac", i));
      n->router =
          std::make_unique<OdmrpRouter>(sim_, *n->mac, id, sim_.rng().stream("aodv", i));
      n->agent = std::make_unique<gossip::GossipAgent>(sim_, *n->router, gp,
                                                       sim_.rng().stream("gossip", i));
      n->router->set_observer(n->agent.get());
      n->router->start();
      n->agent->start();
      nodes_.push_back(std::move(n));
    }
  }

  void run_for(double seconds) {
    sim_.run_until(sim_.now() + sim::Duration::seconds(seconds));
  }
  OdmrpRouter& router(std::size_t i) { return *nodes_[i]->router; }
  gossip::GossipAgent& agent(std::size_t i) { return *nodes_[i]->agent; }

  sim::Simulator sim_;
  mobility::StaticMobility mobility_;
  phy::Channel channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

std::vector<mobility::Vec2> line(std::size_t n, double spacing = 80.0) {
  std::vector<mobility::Vec2> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({static_cast<double>(i) * spacing, 0.0});
  }
  return out;
}

TEST(Odmrp, QueryFloodBuildsForwardingGroupAndDelivers) {
  OdmrpNetwork net{line(4)};
  net.router(0).join_group(kG);
  net.router(3).join_group(kG);
  net.run_for(1.0);
  net.router(0).send_multicast(kG, 64);  // triggers the first Join Query
  net.run_for(4.0);                      // query + reply + FG establishment
  // Interior nodes joined the forwarding group; the first packet may
  // predate the mesh, so send another.
  EXPECT_TRUE(net.router(1).is_forwarding(kG));
  EXPECT_TRUE(net.router(2).is_forwarding(kG));
  net.router(0).send_multicast(kG, 64);
  net.run_for(2.0);
  EXPECT_GE(net.agent(3).counters().delivered_unique, 1u);
}

TEST(Odmrp, MembersDoNotForwardUnlessOnPath) {
  OdmrpNetwork net{line(3)};
  net.router(0).join_group(kG);
  net.router(2).join_group(kG);
  net.run_for(1.0);
  net.router(0).send_multicast(kG, 64);
  net.run_for(4.0);
  // Node 2 is a leaf member: it receives but has no reason to forward.
  net.router(0).send_multicast(kG, 64);
  net.run_for(2.0);
  EXPECT_FALSE(net.router(2).is_forwarding(kG));
  EXPECT_EQ(net.router(2).odmrp_counters().data_forwarded, 0u);
  EXPECT_GE(net.agent(2).counters().delivered_unique, 1u);
}

TEST(Odmrp, ForwardingStateExpiresWithoutRefresh) {
  OdmrpNetwork net{line(4)};
  net.router(0).join_group(kG);
  net.router(3).join_group(kG);
  net.run_for(1.0);
  net.router(0).send_multicast(kG, 64);
  net.run_for(4.0);
  ASSERT_TRUE(net.router(1).is_forwarding(kG));
  // Source falls silent: queries stop after source_linger, FG_FLAG times
  // out after fg_timeout.
  net.run_for(20.0);
  EXPECT_FALSE(net.router(1).is_forwarding(kG));
}

TEST(Odmrp, QueriesStopAfterSourceGoesIdle) {
  OdmrpNetwork net{line(3)};
  net.router(0).join_group(kG);
  net.router(2).join_group(kG);
  net.run_for(1.0);
  net.router(0).send_multicast(kG, 64);
  net.run_for(20.0);
  const std::uint64_t queries = net.router(0).odmrp_counters().queries_sent;
  net.run_for(10.0);
  EXPECT_EQ(net.router(0).odmrp_counters().queries_sent, queries);
}

TEST(Odmrp, ContinuousTrafficDeliversReliablyOnStaticMesh) {
  OdmrpNetwork net{line(5)};
  net.router(0).join_group(kG);
  net.router(4).join_group(kG);
  net.run_for(1.0);
  for (int i = 0; i < 30; ++i) {
    net.sim_.schedule_after(sim::Duration::ms(500 * i),
                            [&net] { net.router(0).send_multicast(kG, 64); });
  }
  net.run_for(25.0);
  // The very first packets race the mesh construction; everything after
  // the first refresh round must arrive.
  EXPECT_GE(net.agent(4).counters().delivered_unique, 28u);
}

TEST(Odmrp, MeshHealsAroundFailedRelayOnRefresh) {
  // 0 - (1 | 4) - 2: two possible relays between source 0 and member 2.
  std::vector<mobility::Vec2> pos = {{0, 0}, {80, 0}, {160, 0}, {0, 0}, {80, 60}};
  pos.erase(pos.begin() + 3);  // nodes: 0,1,2 on a line, 3 parallel at (80,60)
  OdmrpNetwork net{pos};
  net.router(0).join_group(kG);
  net.router(2).join_group(kG);
  net.run_for(1.0);
  for (int i = 0; i < 60; ++i) {
    net.sim_.schedule_after(sim::Duration::ms(500 * i),
                            [&net] { net.router(0).send_multicast(kG, 64); });
  }
  net.run_for(10.0);
  const auto before = net.agent(2).counters().delivered_unique;
  EXPECT_GT(before, 10u);
  // Kill whichever relay is active; the next query flood re-selects.
  net.mobility_.move_to(1, {5000, 0});
  net.run_for(20.0);
  const auto after = net.agent(2).counters().delivered_unique;
  EXPECT_GT(after, before + 20u) << "mesh must re-form through node 3";
}

TEST(Odmrp, MeshNeighborsExposedToGossipAdapter) {
  OdmrpNetwork net{line(4)};
  net.router(0).join_group(kG);
  net.router(3).join_group(kG);
  net.run_for(1.0);
  net.router(0).send_multicast(kG, 64);
  net.run_for(4.0);
  // Interior FG node 1 must know mesh peers on both sides.
  EXPECT_TRUE(net.router(1).on_tree(kG));
  EXPECT_GE(net.router(1).mesh_neighbors(kG).size(), 2u);
  // The member's mesh view contains its forwarding neighbor.
  auto peers = net.router(3).tree_neighbors(kG);
  EXPECT_FALSE(peers.empty());
}

TEST(Odmrp, UnicastRoutingInheritedFromAodv) {
  OdmrpNetwork net{line(3)};
  net.run_for(1.0);
  testutil::GossipPacketRecorder at2;
  net.router(2).set_observer(&at2);
  gossip::GossipReplyMsg probe;
  probe.group = kG;
  probe.responder = net::NodeId{0};
  net.router(0).unicast(net::NodeId{2}, probe);
  net.run_for(3.0);
  ASSERT_EQ(at2.packets.size(), 1u);
  EXPECT_TRUE(at2.packets[0].is<gossip::GossipReplyMsg>());
}

TEST(Odmrp, GossipOverMeshRecoversInjectedLoss) {
  OdmrpNetwork net{line(4), /*gossip_on=*/true};
  net.router(0).join_group(kG);
  net.router(2).join_group(kG);
  net.router(3).join_group(kG);
  net.run_for(1.0);
  // Warm the mesh first.
  net.router(0).send_multicast(kG, 64);
  net.run_for(4.0);
  // Every second frame into node 3 vanishes.
  int counter = 0;
  net.channel_.set_drop_hook([&counter](std::size_t, std::size_t to) {
    return to == 3 && (++counter % 2) == 0;
  });
  for (int i = 0; i < 40; ++i) {
    net.sim_.schedule_after(sim::Duration::ms(200 * i),
                            [&net] { net.router(0).send_multicast(kG, 64); });
  }
  net.run_for(60.0);
  // 41 packets total (1 warmup + 40): gossip walks over the mesh plus
  // unicast replies must fill every hole the lossy link created.
  EXPECT_EQ(net.agent(3).counters().delivered_unique, 41u);
  EXPECT_GT(net.agent(3).counters().delivered_via_gossip, 0u);
}

TEST(Odmrp, DataDeduplicated) {
  OdmrpNetwork net{line(3)};
  net.router(0).join_group(kG);
  net.router(2).join_group(kG);
  net.run_for(1.0);
  net.router(0).send_multicast(kG, 64);
  net.run_for(4.0);
  net.router(0).send_multicast(kG, 64);
  net.run_for(3.0);
  EXPECT_EQ(net.agent(2).counters().duplicates, 0u);
}

}  // namespace
}  // namespace ag::odmrp
