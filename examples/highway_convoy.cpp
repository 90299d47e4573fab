// Vehicular scenario (the paper's "communication between automobiles on
// highways"): vehicles on a two-lane highway exchange hazard warnings in
// a multicast group. Opposing-lane traffic makes links short-lived, so
// the multicast tree churns constantly — the regime where Anonymous
// Gossip's recovery earns its keep. Uses the HighwayMobility model and
// hand-assembled protocol stacks, demonstrating the library below the
// harness level.
//
// Usage: highway_convoy [seed]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "gossip/gossip_agent.h"
#include "mac/csma_mac.h"
#include "maodv/maodv_router.h"
#include "mobility/highway.h"
#include "phy/channel.h"
#include "phy/radio.h"
#include "sim/simulator.h"

using namespace ag;

namespace {

constexpr net::GroupId kHazardGroup{1};

struct Vehicle {
  std::unique_ptr<phy::Radio> radio;
  std::unique_ptr<mac::CsmaMac> mac;
  std::unique_ptr<maodv::MaodvRouter> router;
  std::unique_ptr<gossip::GossipAgent> agent;
  std::uint64_t warnings_received{0};
};

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  constexpr std::size_t kVehicles = 30;
  constexpr double kSimSeconds = 180.0;

  sim::Simulator sim{seed};

  mobility::HighwayConfig highway;
  highway.length_m = 1500.0;
  highway.lanes = 2;
  highway.min_speed_mps = 22.0;  // ~80 km/h
  highway.max_speed_mps = 33.0;  // ~120 km/h
  mobility::HighwayMobility mobility{kVehicles, highway, sim.rng().stream("mobility")};

  phy::PhyParams phy;
  phy.transmission_range_m = 250.0;  // DSRC-class radio
  phy::Channel channel{sim, mobility, phy};

  gossip::GossipParams gossip_params;
  gossip_params.round_interval = sim::Duration::ms(500);  // hazard data is urgent

  std::vector<std::unique_ptr<Vehicle>> vehicles;
  for (std::size_t i = 0; i < kVehicles; ++i) {
    auto v = std::make_unique<Vehicle>();
    const net::NodeId id{static_cast<std::uint32_t>(i)};
    v->radio = std::make_unique<phy::Radio>(channel, i);
    v->mac = std::make_unique<mac::CsmaMac>(sim, *v->radio, channel, id,
                                            mac::MacParams{}, sim.rng().stream("mac", i));
    v->router =
        std::make_unique<maodv::MaodvRouter>(sim, *v->mac, id, sim.rng().stream("aodv", i));
    v->agent = std::make_unique<gossip::GossipAgent>(sim, *v->router, gossip_params,
                                                     sim.rng().stream("gossip", i));
    v->router->set_observer(v->agent.get());
    Vehicle* raw = v.get();
    v->agent->set_deliver([raw](const net::MulticastData&, bool) {
      ++raw->warnings_received;
    });
    v->router->start();
    v->agent->start();
    vehicles.push_back(std::move(v));
  }

  // Every vehicle subscribes to hazard warnings, staggered over 3 s.
  for (std::size_t i = 0; i < kVehicles; ++i) {
    sim.schedule_after(sim::Duration::ms(100 * static_cast<std::int64_t>(i)),
                       [&vehicles, i] { vehicles[i]->router->join_group(kHazardGroup); });
  }

  // Vehicle 0 spots black ice and broadcasts a warning burst every 2 s.
  constexpr int kWarnings = 60;
  for (int w = 0; w < kWarnings; ++w) {
    sim.schedule_at(sim::SimTime::seconds(30.0 + 2.0 * w), [&vehicles] {
      vehicles[0]->router->send_multicast(kHazardGroup, 48);
    });
  }

  sim.run_until(sim::SimTime::seconds(kSimSeconds));

  std::printf("Highway convoy: %zu vehicles, %d hazard warnings multicast\n\n",
              kVehicles, kWarnings);
  std::uint64_t total = 0, min = kWarnings, recovered = 0, repairs = 0;
  for (std::size_t i = 1; i < kVehicles; ++i) {
    total += vehicles[i]->warnings_received;
    if (vehicles[i]->warnings_received < min) min = vehicles[i]->warnings_received;
    recovered += vehicles[i]->agent->counters().delivered_via_gossip;
    repairs += vehicles[i]->router->mcast_counters().repairs_started;
  }
  std::printf("mean warnings received %.1f / %d, worst vehicle %llu, "
              "%llu recovered by gossip, %llu tree repairs\n",
              static_cast<double>(total) / (kVehicles - 1), kWarnings,
              static_cast<unsigned long long>(min),
              static_cast<unsigned long long>(recovered),
              static_cast<unsigned long long>(repairs));
  std::printf("\n(opposing-lane links break every few seconds at a 55 m/s closing "
              "speed;\n gossip backfills what the tree drops mid-repair)\n");
  return 0;
}
