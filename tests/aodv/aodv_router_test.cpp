// AODV routing behaviour on hand-built static topologies.
#include <gtest/gtest.h>

#include <vector>

#include "testutil/stack_fixture.h"

namespace ag::aodv {
namespace {

using testutil::GossipPacketRecorder;
using testutil::StaticNetwork;
using testutil::line_positions;

net::Packet routed_probe(std::uint32_t src, std::uint32_t dst) {
  // A gossip reply doubles as a generic routed unicast payload.
  net::Packet p;
  p.src = net::NodeId{src};
  p.dst = net::NodeId{dst};
  gossip::GossipReplyMsg reply;
  reply.group = testutil::kGroup;
  reply.responder = net::NodeId{src};
  reply.data.origin = net::NodeId{src};
  reply.data.seq = 1;
  p.payload = reply;
  return p;
}

TEST(AodvRouter, DiscoversMultiHopRouteAndDelivers) {
  // 5 nodes, 80 m apart, 100 m range: only adjacent nodes hear each other.
  StaticNetwork net{line_positions(5, 80.0)};
  GossipPacketRecorder at4;
  net.router(4).set_observer(&at4);
  net.run_for(1.0);  // let hellos populate neighbor tables

  net.router(0).send_unicast(routed_probe(0, 4));
  net.run_for(5.0);

  ASSERT_EQ(at4.packets.size(), 1u);
  EXPECT_GE(net.router(0).counters().rreq_originated, 1u);
  const RouteEntry* route = net.router(0).route_table().find(net::NodeId{4});
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->hops, 4);
  EXPECT_EQ(route->next_hop, net::NodeId{1});
}

TEST(AodvRouter, SecondSendUsesCachedRoute) {
  StaticNetwork net{line_positions(3, 80.0)};
  GossipPacketRecorder at2;
  net.router(2).set_observer(&at2);
  net.run_for(1.0);
  net.router(0).send_unicast(routed_probe(0, 2));
  net.run_for(3.0);
  const std::uint64_t rreqs_after_first = net.router(0).counters().rreq_originated;
  net.router(0).send_unicast(routed_probe(0, 2));
  net.run_for(1.0);
  EXPECT_EQ(at2.packets.size(), 2u);
  EXPECT_EQ(net.router(0).counters().rreq_originated, rreqs_after_first);
}

TEST(AodvRouter, DiscoveryToNonexistentNodeFailsAfterRetries) {
  StaticNetwork net{line_positions(3, 80.0)};
  net.run_for(1.0);
  net.router(0).send_unicast(routed_probe(0, 77));  // no such node
  net.run_for(15.0);
  EXPECT_EQ(net.router(0).counters().discovery_failures, 1u);
  EXPECT_GE(net.router(0).counters().rreq_originated,
            1u + kRreqRetries);
  EXPECT_GT(net.router(0).counters().no_route_drops, 0u);
}

TEST(AodvRouter, HelloBeaconsPopulateNeighborTables) {
  StaticNetwork net{line_positions(3, 80.0)};
  net.run_for(2.0);
  EXPECT_TRUE(net.router(1).neighbors().contains(net::NodeId{0}));
  EXPECT_TRUE(net.router(1).neighbors().contains(net::NodeId{2}));
  EXPECT_FALSE(net.router(0).neighbors().contains(net::NodeId{2}));  // 160 m away
  // Hellos also install 1-hop routes.
  EXPECT_NE(net.router(1).route_table().find_valid(net::NodeId{0}, net.sim().now()),
            nullptr);
}

TEST(AodvRouter, NeighborTimeoutAfterNodeMovesAway) {
  StaticNetwork net{line_positions(2, 50.0)};
  net.run_for(2.0);
  ASSERT_TRUE(net.router(0).neighbors().contains(net::NodeId{1}));
  net.mobility().move_to(1, {5000.0, 0.0});
  net.run_for(5.0);  // > allowed_hello_loss * hello_interval
  EXPECT_FALSE(net.router(0).neighbors().contains(net::NodeId{1}));
  EXPECT_GT(net.router(0).counters().link_breaks_hello, 0u);
}

TEST(AodvRouter, BrokenRouteIsInvalidatedAndRediscovered) {
  StaticNetwork net{line_positions(4, 80.0)};
  GossipPacketRecorder at3;
  net.router(3).set_observer(&at3);
  net.run_for(1.0);
  net.router(0).send_unicast(routed_probe(0, 3));
  net.run_for(3.0);
  ASSERT_EQ(at3.packets.size(), 1u);

  // Break the chain: node 1 jumps far away. A parallel relay (node 4,
  // appended below line spacing) is not present, so bring node 1 back
  // within range of nobody and give the network a replacement path by
  // moving it near the midpoint between 0 and 2 is not possible — instead
  // verify the route is torn down and discovery fails cleanly.
  net.mobility().move_to(1, {5000.0, 0.0});
  net.run_for(6.0);
  net.router(0).send_unicast(routed_probe(0, 3));
  net.run_for(15.0);
  EXPECT_EQ(at3.packets.size(), 1u);  // unreachable now
  EXPECT_GE(net.router(0).counters().discovery_failures, 1u);
}

TEST(AodvRouter, ReroutesViaAlternatePathAfterBreak) {
  // 0 - 1 - 2 line plus node 3 parallel to 1 (reaches both 0 and 2).
  std::vector<mobility::Vec2> pos = {{0, 0}, {80, 0}, {160, 0}, {80, 60}};
  StaticNetwork net{pos};
  GossipPacketRecorder at2;
  net.router(2).set_observer(&at2);
  net.run_for(1.0);
  net.router(0).send_unicast(routed_probe(0, 2));
  net.run_for(3.0);
  ASSERT_EQ(at2.packets.size(), 1u);

  net.mobility().move_to(1, {5000.0, 0.0});
  net.run_for(6.0);  // neighbor timeout + RERR
  net.router(0).send_unicast(routed_probe(0, 2));
  net.run_for(5.0);
  EXPECT_EQ(at2.packets.size(), 2u);  // rerouted via node 3
  const RouteEntry* route = net.router(0).route_table().find(net::NodeId{2});
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->next_hop, net::NodeId{3});
}

TEST(AodvRouter, RouteHintAvoidsDiscovery) {
  StaticNetwork net{line_positions(3, 80.0)};
  GossipPacketRecorder at2;
  net.router(2).set_observer(&at2);
  net.run_for(1.0);
  net.router(0).route_hint(net::NodeId{2}, net::NodeId{1}, 2);
  net.router(1).route_hint(net::NodeId{2}, net::NodeId{2}, 1);
  net.router(0).send_unicast(routed_probe(0, 2));
  net.run_for(2.0);
  EXPECT_EQ(at2.packets.size(), 1u);
  EXPECT_EQ(net.router(0).counters().rreq_originated, 0u);
}

TEST(AodvRouter, SendToSelfDeliversLocally) {
  StaticNetwork net{line_positions(2, 50.0)};
  GossipPacketRecorder at0;
  net.router(0).set_observer(&at0);
  net.router(0).send_unicast(routed_probe(0, 0));
  net.run_for(0.5);
  EXPECT_EQ(at0.packets.size(), 1u);
}

TEST(AodvRouter, SendToNeighborBypassesRouting) {
  StaticNetwork net{line_positions(2, 50.0)};
  GossipPacketRecorder at1;
  net.router(1).set_observer(&at1);
  gossip::NearestMemberMsg nm{testutil::kGroup, 3};
  net.router(0).send_to_neighbor(net::NodeId{1}, nm);
  net.run_for(0.5);
  ASSERT_EQ(at1.packets.size(), 1u);
  EXPECT_TRUE(at1.packets[0].is<gossip::NearestMemberMsg>());
  EXPECT_EQ(net.router(0).counters().rreq_originated, 0u);
}

}  // namespace
}  // namespace ag::aodv
