// End-to-end coverage of the custody tier on a full harness Network:
// the zero-cost guarantees (armed-but-empty store, a configured but
// disabled tier), the reboot re-offer path with sink-level dedup, gateway
// bridging across a partition heal, and determinism.
#include <gtest/gtest.h>

#include "dtn/custody_router.h"
#include "harness/network.h"
#include "harness/scenario.h"
#include "stats/run_result.h"
#include "testutil/run_digest.h"

namespace ag::harness {
namespace {

// The fault_injection_test recipe: 14 nodes at good connectivity, 401
// data packets between t=20 s and t=100 s.
ScenarioConfig small_scenario(std::uint64_t seed = 1) {
  ScenarioConfig c;
  c.seed = seed;
  c.node_count = 14;
  c.phy.transmission_range_m = 80.0;
  c.waypoint.max_speed_mps = 0.5;
  c.duration = sim::SimTime::seconds(120.0);
  c.workload.start = sim::SimTime::seconds(20.0);
  c.workload.end = sim::SimTime::seconds(100.0);
  c.with_protocol(Protocol::maodv_gossip);
  return c;
}

void expect_same_results(const stats::RunResult& a, const stats::RunResult& b) {
  ASSERT_EQ(a.members.size(), b.members.size());
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  for (std::size_t i = 0; i < a.members.size(); ++i) {
    EXPECT_EQ(a.members[i].received, b.members[i].received) << "member " << i;
    EXPECT_EQ(a.members[i].via_gossip, b.members[i].via_gossip) << "member " << i;
  }
  EXPECT_EQ(a.totals.channel_transmissions, b.totals.channel_transmissions);
  EXPECT_EQ(a.totals.mac_unicast, b.totals.mac_unicast);
  EXPECT_EQ(a.totals.mac_broadcast, b.totals.mac_broadcast);
  EXPECT_EQ(a.totals.gossip_walks, b.totals.gossip_walks);
}

TEST(Custody, ArmedButEmptyStoreMatchesPlainRun) {
  // max_messages = 0 builds the whole tier (decorators, contact monitor,
  // gateway flags) but the store refuses everything: no offers ever hit
  // the MAC, so delivery and traffic are identical to a plain run.
  const stats::RunResult plain = run_scenario(small_scenario());

  ScenarioConfig armed = small_scenario();
  armed.with_custody(/*max_messages=*/0, /*gateway_count=*/2);
  const stats::RunResult empty = run_scenario(armed);

  expect_same_results(plain, empty);
  EXPECT_TRUE(empty.totals.dtn_active);
  EXPECT_EQ(empty.totals.custody_stored, 0u);
  EXPECT_EQ(empty.totals.custody_offers, 0u);
}

TEST(Custody, DisabledConfigBuildsThePlainStack) {
  // Custody fully configured but enabled=false: not even the contact
  // monitor is built, so every schema field of the run — sim_events and
  // the event mix included — is the plain run's.
  const stats::RunResult plain = run_scenario(small_scenario());

  ScenarioConfig configured = small_scenario();
  configured.with_custody(/*max_messages=*/64, /*gateway_count=*/2);
  configured.custody.enabled = false;
  Network net{configured};
  EXPECT_FALSE(net.custody_enabled());
  EXPECT_EQ(net.custody(0), nullptr);
  net.run();
  const stats::RunResult off = net.result();

  EXPECT_EQ(testutil::digest_of(off).all, testutil::digest_of(plain).all);
  EXPECT_FALSE(off.totals.dtn_active);
}

TEST(Custody, DecoratorWrapsEveryNodeAndMarksGateways) {
  ScenarioConfig c = small_scenario();
  c.with_custody(/*max_messages=*/16, /*gateway_count=*/2);
  Network net{c};
  ASSERT_TRUE(net.custody_enabled());
  std::size_t gateways = 0;
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    ASSERT_NE(net.custody(i), nullptr) << "node " << i;
    EXPECT_EQ(net.custody(i)->self(), net::NodeId{static_cast<std::uint32_t>(i)});
    if (net.is_gateway(i)) {
      ++gateways;
      EXPECT_TRUE(net.custody(i)->gateway());
    }
  }
  EXPECT_EQ(gateways, 2u);
  EXPECT_FALSE(net.is_gateway(0)) << "the source is never a gateway";
}

TEST(Custody, RebootReofferDoesNotDoubleDeliver) {
  // Member 3 crashes with a full state wipe (the gossip dedup tables die
  // with it); on reboot its neighbors re-offer custody. The sink's MsgId
  // dedup must keep every re-delivered packet from being counted twice:
  // received can never exceed the member's eligible window.
  ScenarioConfig c = small_scenario();
  c.with_custody(/*max_messages=*/64, /*gateway_count=*/0);
  c.faults.plan.crash(3, 40.0, 30.0, faults::RebootPolicy::wipe);
  const stats::RunResult r = run_scenario(c);

  EXPECT_EQ(r.faults.crashes, 1u);
  EXPECT_EQ(r.faults.reboots, 1u);
  // The custody path actually ran: deliveries were taken into custody
  // and the reboot/contact bursts put offers on the air.
  EXPECT_GT(r.totals.custody_stored, 0u);
  EXPECT_GT(r.totals.custody_offers, 0u);
  for (const stats::MemberResult& m : r.members) {
    EXPECT_LE(m.received, r.eligible_of(m)) << "member " << m.node.value();
  }
}

TEST(Custody, GatewayBridgesThePartitionHeal) {
  ScenarioConfig c = small_scenario();
  c.waypoint.max_speed_mps = 0.2;  // near-static so the cut stays real
  c.with_custody(/*max_messages=*/32, /*gateway_count=*/2);
  c.faults.plan.partition_at_x(-1.0, 50.0, 30.0);
  const stats::RunResult r = run_scenario(c);

  EXPECT_EQ(r.faults.partitions, 1u);
  EXPECT_EQ(r.faults.heals, 1u);
  EXPECT_GT(r.totals.custody_stored, 0u);
  EXPECT_GT(r.totals.custody_offers, 0u);
  EXPECT_GT(r.delivery_ratio(), 0.3);
  for (const stats::MemberResult& m : r.members) {
    EXPECT_LE(m.received, r.eligible_of(m));
  }
}

TEST(Custody, DeterministicAcrossIdenticalRuns) {
  ScenarioConfig c = small_scenario(3);
  c.with_custody(/*max_messages=*/8, /*gateway_count=*/1);
  c.faults.spec.churn_per_min = 1.0;
  const stats::RunResult a = run_scenario(c);
  const stats::RunResult b = run_scenario(c);
  expect_same_results(a, b);
  EXPECT_EQ(a.totals.custody_stored, b.totals.custody_stored);
  EXPECT_EQ(a.totals.custody_offers, b.totals.custody_offers);
  EXPECT_EQ(a.totals.custody_accepted, b.totals.custody_accepted);
  EXPECT_EQ(a.totals.custody_duplicates, b.totals.custody_duplicates);
  EXPECT_EQ(a.totals.sim_events, b.totals.sim_events);
}

TEST(Custody, SessionsAccountUsersServed) {
  // 50 users per member node with a 50 % duty cycle: the session layer
  // must report hosted sessions and a served count bounded by the
  // eligible (session, packet) pairs — without perturbing delivery.
  const stats::RunResult plain = run_scenario(small_scenario());

  ScenarioConfig c = small_scenario();
  c.with_sessions(/*per_node=*/50, /*duty=*/0.5);
  c.sessions.wake_ttl_s = 10.0;
  c.sessions.subscribe_spread_s = 30.0;
  const stats::RunResult r = run_scenario(c);

  // Sessions are purely analytic: the packet trace is untouched.
  expect_same_results(plain, r);
  EXPECT_TRUE(r.totals.dtn_active);
  // Every member except the source hosts 50 sessions.
  const std::uint64_t hosts = small_scenario().member_count() - 1;
  EXPECT_EQ(r.totals.sessions.sessions, hosts * 50u);
  EXPECT_GT(r.totals.sessions.user_eligible, 0u);
  EXPECT_GT(r.totals.sessions.users_served, 0u);
  EXPECT_LE(r.totals.sessions.users_served, r.totals.sessions.user_eligible);
  EXPECT_GT(r.totals.sessions.served_ratio(), 0.0);
  EXPECT_LE(r.totals.sessions.served_ratio(), 1.0);
}

}  // namespace
}  // namespace ag::harness
