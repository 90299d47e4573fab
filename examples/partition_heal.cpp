// Partition and heal: two squads drift apart until the network splits,
// MAODV elects a second group leader in the orphan partition, and when
// the squads reunite the leaders discover each other through group hellos
// and merge the trees. Demonstrates the partition/merge machinery of
// section 3 and gossip's recovery of the messages lost while split.
//
// Usage: partition_heal [seed]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "gossip/gossip_agent.h"
#include "mac/csma_mac.h"
#include "maodv/maodv_router.h"
#include "mobility/static_mobility.h"
#include "phy/channel.h"
#include "phy/radio.h"
#include "sim/simulator.h"

using namespace ag;

namespace {

constexpr net::GroupId kGroup{1};

struct Node {
  std::unique_ptr<phy::Radio> radio;
  std::unique_ptr<mac::CsmaMac> mac;
  std::unique_ptr<maodv::MaodvRouter> router;
  std::unique_ptr<gossip::GossipAgent> agent;
};

int leader_count(std::vector<std::unique_ptr<Node>>& nodes) {
  int count = 0;
  for (auto& n : nodes) {
    const maodv::GroupEntry* e = n->router->group_entry(kGroup);
    if (e != nullptr && e->is_leader) ++count;
  }
  return count;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
  sim::Simulator sim{seed};

  // Squad A: nodes 0-2 around x=0; squad B: nodes 3-5 around x=240,
  // bridged while close (range 100 m, gap 80 m between squad edges).
  std::vector<mobility::Vec2> positions = {
      {0, 0}, {80, 0}, {160, 0}, {240, 0}, {320, 0}, {400, 0}};
  mobility::StaticMobility mobility{positions};

  phy::PhyParams phy;
  phy.transmission_range_m = 100.0;
  phy::Channel channel{sim, mobility, phy};

  std::vector<std::unique_ptr<Node>> nodes;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    auto n = std::make_unique<Node>();
    const net::NodeId id{static_cast<std::uint32_t>(i)};
    n->radio = std::make_unique<phy::Radio>(channel, i);
    n->mac = std::make_unique<mac::CsmaMac>(sim, *n->radio, channel, id,
                                            mac::MacParams{}, sim.rng().stream("mac", i));
    n->router =
        std::make_unique<maodv::MaodvRouter>(sim, *n->mac, id, sim.rng().stream("aodv", i));
    n->agent = std::make_unique<gossip::GossipAgent>(sim, *n->router,
                                                     gossip::GossipParams{},
                                                     sim.rng().stream("gossip", i));
    n->router->set_observer(n->agent.get());
    n->router->start();
    n->agent->start();
    nodes.push_back(std::move(n));
  }

  // Members: 0 (source, squad A) and 5 (far end of squad B).
  nodes[0]->router->join_group(kGroup);
  sim.schedule_after(sim::Duration::seconds(8.0),
                     [&] { nodes[5]->router->join_group(kGroup); });
  sim.run_until(sim::SimTime::seconds(25.0));
  std::printf("t= 25s  joined: leaders=%d (one tree spanning both squads)\n",
              leader_count(nodes));

  // Source streams one packet per second throughout.
  for (int i = 0; i < 150; ++i) {
    sim.schedule_at(sim::SimTime::seconds(25.0 + i),
                    [&] { nodes[0]->router->send_multicast(kGroup, 64); });
  }

  // t=60 s: squad B drives off — the bridge node 3 moves out of range.
  sim.schedule_at(sim::SimTime::seconds(60.0), [&] {
    mobility.move_to(3, {1240, 0});
    mobility.move_to(4, {1320, 0});
    mobility.move_to(5, {1400, 0});
  });
  sim.run_until(sim::SimTime::seconds(110.0));
  std::printf("t=110s  split:  leaders=%d (orphan partition elected its own)\n",
              leader_count(nodes));
  const auto received_at_split = nodes[5]->agent->counters().delivered_unique;

  // t=110 s: squad B returns.
  mobility.move_to(3, {240, 0});
  mobility.move_to(4, {320, 0});
  mobility.move_to(5, {400, 0});
  sim.run_until(sim::SimTime::seconds(185.0));
  std::printf("t=185s  healed: leaders=%d (group hellos crossed, trees merged)\n",
              leader_count(nodes));

  const auto& g = nodes[5]->agent->counters();
  std::printf("\nmember 5: received %llu/150 total (%llu before heal), "
              "%llu recovered via gossip after the merge\n",
              static_cast<unsigned long long>(g.delivered_unique),
              static_cast<unsigned long long>(received_at_split),
              static_cast<unsigned long long>(g.delivered_via_gossip));
  std::printf("(packets multicast while split are pulled from peers' history "
              "tables;\n losses older than the 100-entry history are gone for "
              "good — the paper's\n bounded-buffer trade-off)\n");
  return 0;
}
