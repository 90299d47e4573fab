#include "flood/flood_router.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gossip/gossip_agent.h"
#include "mobility/static_mobility.h"
#include "phy/channel.h"
#include "phy/radio.h"
#include "sim/simulator.h"

namespace ag::flood {
namespace {

const net::GroupId kG{1};

class FloodFixture {
 public:
  explicit FloodFixture(std::vector<mobility::Vec2> positions, double range = 100.0)
      : mobility_{std::move(positions)},
        channel_{sim_, mobility_, phy::PhyParams{range}} {
    for (std::size_t i = 0; i < mobility_.node_count(); ++i) {
      radios_.push_back(std::make_unique<phy::Radio>(channel_, i));
      macs_.push_back(std::make_unique<mac::CsmaMac>(
          sim_, *radios_.back(), channel_, net::NodeId{static_cast<std::uint32_t>(i)},
          mac::MacParams{}, sim_.rng().stream("mac", i)));
      routers_.push_back(std::make_unique<FloodRouter>(
          *macs_.back(), net::NodeId{static_cast<std::uint32_t>(i)}));
      agents_.push_back(std::make_unique<gossip::GossipAgent>(
          sim_, *routers_.back(), gossip::GossipParams{.enabled = false},
          sim_.rng().stream("gossip", i)));
      routers_.back()->set_observer(agents_.back().get());
    }
  }
  sim::Simulator sim_;
  mobility::StaticMobility mobility_;
  phy::Channel channel_;
  std::vector<std::unique_ptr<phy::Radio>> radios_;
  std::vector<std::unique_ptr<mac::CsmaMac>> macs_;
  std::vector<std::unique_ptr<FloodRouter>> routers_;
  std::vector<std::unique_ptr<gossip::GossipAgent>> agents_;
};

TEST(FloodRouter, DeliversAcrossMultipleHops) {
  FloodFixture f{{{0, 0}, {80, 0}, {160, 0}, {240, 0}}};
  f.routers_[0]->join_group(kG);
  f.routers_[3]->join_group(kG);
  f.routers_[0]->send_multicast(kG, 64);
  f.sim_.run_until(f.sim_.now() + sim::Duration::seconds(2));
  EXPECT_EQ(f.agents_[3]->counters().delivered_unique, 1u);
}

TEST(FloodRouter, EveryNodeRebroadcastsOnce) {
  FloodFixture f{{{0, 0}, {50, 0}, {100, 0}}};
  f.routers_[0]->join_group(kG);
  f.routers_[0]->send_multicast(kG, 64);
  f.sim_.run_until(f.sim_.now() + sim::Duration::seconds(2));
  EXPECT_EQ(f.routers_[1]->counters().rebroadcasts, 1u);
  EXPECT_EQ(f.routers_[2]->counters().rebroadcasts, 1u);
  EXPECT_GT(f.routers_[1]->counters().duplicates + f.routers_[2]->counters().duplicates,
            0u);
}

TEST(FloodRouter, NonMembersForwardButDoNotDeliver) {
  FloodFixture f{{{0, 0}, {80, 0}, {160, 0}}};
  f.routers_[0]->join_group(kG);
  f.routers_[2]->join_group(kG);
  f.routers_[0]->send_multicast(kG, 64);
  f.sim_.run_until(f.sim_.now() + sim::Duration::seconds(2));
  EXPECT_EQ(f.agents_[1]->counters().delivered_unique, 0u);
  EXPECT_EQ(f.agents_[2]->counters().delivered_unique, 1u);
}

TEST(FloodRouter, TtlBoundsPropagation) {
  std::vector<mobility::Vec2> line;
  for (int i = 0; i < 6; ++i) line.push_back({i * 80.0, 0});
  FloodFixture f{line};
  f.routers_[0]->join_group(kG);
  f.routers_[5]->join_group(kG);
  // Sent with TTL 3: the packet dies after 2 rebroadcast hops, so node 5
  // is unreachable.
  net::MulticastData data;
  data.group = kG;
  data.origin = net::NodeId{0};
  net::Packet pkt;
  pkt.src = net::NodeId{0};
  pkt.dst = net::NodeId::broadcast();
  pkt.ttl = 3;
  pkt.payload = data;
  f.macs_[0]->send(net::NodeId::broadcast(), std::move(pkt));
  f.sim_.run_until(f.sim_.now() + sim::Duration::seconds(2));
  EXPECT_EQ(f.routers_[2]->counters().rebroadcasts, 1u);
  EXPECT_EQ(f.routers_[3]->counters().rebroadcasts, 0u);
  EXPECT_EQ(f.agents_[5]->counters().delivered_unique, 0u);
}

TEST(FloodRouter, LeaveStopsDelivery) {
  FloodFixture f{{{0, 0}, {50, 0}}};
  f.routers_[0]->join_group(kG);
  f.routers_[1]->join_group(kG);
  f.routers_[1]->leave_group(kG);
  f.routers_[0]->send_multicast(kG, 64);
  f.sim_.run_until(f.sim_.now() + sim::Duration::seconds(1));
  EXPECT_EQ(f.agents_[1]->counters().delivered_unique, 0u);
}

}  // namespace
}  // namespace ag::flood
