// End-to-end coverage of the adversary axis and trust layer on a full
// harness Network: the zero-cost guarantees (armed-but-zero adversaries,
// trust bookkeeping on an all-honest run, a configured but unarmed axis),
// role synthesis, the attack modes degrading delivery, decorator
// stacking under custody, detection/isolation, and the churn
// interaction (trust state across a reboot per RebootPolicy).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "dtn/custody_router.h"
#include "faults/adversary.h"
#include "faults/fault_plan.h"
#include "harness/network.h"
#include "harness/scenario.h"
#include "stats/run_result.h"
#include "testutil/run_digest.h"

namespace ag::harness {
namespace {

// The fault_injection_test recipe: 14 nodes at good connectivity, 401
// data packets between t=20 s and t=100 s.
ScenarioConfig small_scenario(std::uint64_t seed = 1,
                              Protocol protocol = Protocol::maodv_gossip) {
  ScenarioConfig c;
  c.seed = seed;
  c.node_count = 14;
  c.phy.transmission_range_m = 80.0;
  c.waypoint.max_speed_mps = 0.5;
  c.duration = sim::SimTime::seconds(120.0);
  c.workload.start = sim::SimTime::seconds(20.0);
  c.workload.end = sim::SimTime::seconds(100.0);
  c.with_protocol(protocol);
  return c;
}

// Whole-run equivalence, down to the event count: two runs that pass
// this executed the same simulation.
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
  EXPECT_EQ(a.totals.sim_events, b.totals.sim_events);
}

TEST(Adversary, ArmedButZeroAdversariesMatchesPlainRun) {
  // Trust enabled at adversary_fraction zero builds the whole axis
  // (decorator on every node, junk-reply scoring on every monitor) but
  // no role misbehaves and no isolation fires: the run must be
  // bit-identical to a plain one, on both a tree substrate and the
  // flooding family.
  for (const Protocol protocol :
       {Protocol::maodv_gossip, Protocol::flooding_gossip}) {
    const stats::RunResult plain = run_scenario(small_scenario(1, protocol));

    ScenarioConfig armed = small_scenario(1, protocol);
    armed.with_adversaries(0.0).with_trust();
    Network net{armed};
    ASSERT_TRUE(net.adversary_enabled());
    ASSERT_NE(net.adversary(1), nullptr);
    EXPECT_TRUE(net.adversary(1)->monitoring());
    net.run();
    const stats::RunResult zero = net.result();

    expect_same_results(plain, zero);
    EXPECT_TRUE(zero.totals.adversary_active);
    EXPECT_EQ(zero.totals.adversary_nodes, 0u);
    EXPECT_EQ(zero.totals.trust_isolations, 0u);
    EXPECT_EQ(zero.totals.trust_false_positives, 0u);
  }
}

TEST(Adversary, UnarmedConfigBuildsThePlainStack) {
  // Mode and parameters set, but fraction 0, no scripted roles and trust
  // off: not even the decorator is built and the "adversary" rng stream
  // is never drawn from, so every schema field of the run — sim_events
  // and the event mix included — is the plain run's.
  const stats::RunResult plain = run_scenario(small_scenario());

  ScenarioConfig configured = small_scenario();
  configured.with_adversaries(0.0, faults::AdversaryMode::selective_forward);
  configured.faults.spec.adversary_drop = 0.5;
  configured.trust.watchdog = true;
  configured.trust.forward_ratio_floor = 0.2;
  configured.trust.min_expected = 60.0;
  Network net{configured};
  EXPECT_FALSE(net.adversary_enabled());
  EXPECT_EQ(net.adversary(0), nullptr);
  net.run();
  const stats::RunResult off = net.result();

  EXPECT_EQ(testutil::digest_of(off).all, testutil::digest_of(plain).all);
  EXPECT_FALSE(off.totals.adversary_active);
}

TEST(AdversarySynthesis, DeterministicSparesSourceAndValidates) {
  faults::FaultSpec spec;
  spec.adversary_fraction = 0.25;
  spec.adversary_mode = faults::AdversaryMode::selective_forward;
  spec.adversary_drop = 0.5;

  faults::FaultPlan a;
  faults::synthesize_adversaries_into(a, spec, 20, 0, sim::Rng{42});
  faults::FaultPlan b;
  faults::synthesize_adversaries_into(b, spec, 20, 0, sim::Rng{42});

  // round(0.25 * 20) distinct non-source nodes, identically for the
  // same stream.
  ASSERT_EQ(a.adversaries.size(), 5u);
  ASSERT_EQ(b.adversaries.size(), 5u);
  for (std::size_t i = 0; i < a.adversaries.size(); ++i) {
    EXPECT_EQ(a.adversaries[i].node, b.adversaries[i].node);
    EXPECT_EQ(a.adversaries[i].mode, spec.adversary_mode);
    EXPECT_DOUBLE_EQ(a.adversaries[i].drop_fraction, 0.5);
    EXPECT_NE(a.adversaries[i].node, 0u);  // source never compromised
    EXPECT_LT(a.adversaries[i].node, 20u);
  }
  EXPECT_NO_THROW(a.validate(20));
  // Roles are not timed events: an adversary-only plan stays "empty" so
  // it never flips the fault-run machinery.
  EXPECT_TRUE(a.empty());
}

TEST(AdversaryValidate, RejectionsNameTheOffendingIndex) {
  // Out-of-range node.
  faults::FaultPlan range_bad;
  range_bad.adversary(3, faults::AdversaryMode::blackhole)
      .adversary(10, faults::AdversaryMode::blackhole);
  try {
    range_bad.validate(10);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("adversaries[1]"), std::string::npos)
        << e.what();
  }

  // drop_fraction outside [0, 1].
  faults::FaultPlan drop_bad;
  drop_bad.adversary(3, faults::AdversaryMode::selective_forward, 1.5);
  try {
    drop_bad.validate(10);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("adversaries[0]"), std::string::npos)
        << e.what();
  }

  // Duplicate assignment of one node.
  faults::FaultPlan dup_bad;
  dup_bad.adversary(3, faults::AdversaryMode::blackhole)
      .adversary(3, faults::AdversaryMode::gossip_poison);
  try {
    dup_bad.validate(10);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("adversaries[1]"), std::string::npos)
        << e.what();
  }
}

TEST(Adversary, BlackholesDegradeFloodingDelivery) {
  // Five scripted blackholes in a sparse flooding mesh absorb relayed
  // payloads while still ACKing at the MAC: honest members downstream
  // lose coverage, so delivery must drop against the clean run.
  ScenarioConfig clean = small_scenario(1, Protocol::flooding_gossip);
  clean.phy.transmission_range_m = 60.0;
  const stats::RunResult plain = run_scenario(clean);

  ScenarioConfig attacked = clean;
  for (const std::size_t node : {2u, 5u, 7u, 9u, 11u}) {
    attacked.faults.plan.adversary(node, faults::AdversaryMode::blackhole);
  }
  const stats::RunResult r = run_scenario(attacked);

  EXPECT_TRUE(r.totals.adversary_active);
  EXPECT_EQ(r.totals.adversary_nodes, 5u);
  EXPECT_GT(r.totals.adversary_absorbed, 0u);
  EXPECT_LT(r.delivery_ratio(), plain.delivery_ratio());
  // Compromised nodes are excluded from the member rows: only honest
  // members score delivery.
  for (const stats::MemberResult& m : r.members) {
    EXPECT_NE(m.node, net::NodeId{2});
  }
}

TEST(Adversary, GossipPoisonFabricatesReplies) {
  // Poisoners sit on member nodes of a lossy tree substrate, so gossip
  // recovery walks reach them and get junk (or silence) back.
  ScenarioConfig c = small_scenario(1, Protocol::maodv_gossip);
  c.phy.transmission_range_m = 60.0;
  c.waypoint.max_speed_mps = 2.0;
  c.faults.plan.adversary(2, faults::AdversaryMode::gossip_poison)
      .adversary(3, faults::AdversaryMode::gossip_poison);
  const stats::RunResult r = run_scenario(c);

  EXPECT_TRUE(r.totals.adversary_active);
  EXPECT_EQ(r.totals.adversary_nodes, 2u);
  // Every gossip request reaching a poisoner is consumed: answered with
  // a fabricated duplicate or swallowed.
  EXPECT_GT(r.totals.adversary_poisoned, 0u);
}

TEST(Adversary, CustodyStacksOverAdversaryRouter) {
  // Both decorators on every node, custody outermost: custody handoffs
  // flow through the adversary seam, and the typed accessors agree.
  ScenarioConfig c = small_scenario();
  c.with_custody(/*max_messages=*/16, /*gateway_count=*/2);
  c.faults.plan.adversary(3, faults::AdversaryMode::blackhole);
  c.with_trust();
  Network net{c};
  ASSERT_TRUE(net.custody_enabled());
  ASSERT_TRUE(net.adversary_enabled());
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    ASSERT_NE(net.custody(i), nullptr) << "node " << i;
    auto* inner = dynamic_cast<faults::AdversaryRouter*>(&net.custody(i)->inner());
    ASSERT_NE(inner, nullptr) << "node " << i;
    EXPECT_EQ(inner, net.adversary(i)) << "node " << i;
  }
  EXPECT_TRUE(net.is_adversary(3));
  EXPECT_TRUE(net.adversary(3)->role().adversarial);
  EXPECT_FALSE(net.adversary(4)->role().adversarial);
  // The stacked run completes and keeps both axes' accounting.
  net.run();
  const stats::RunResult r = net.result();
  EXPECT_TRUE(r.totals.dtn_active);
  EXPECT_TRUE(r.totals.adversary_active);
  EXPECT_EQ(r.totals.adversary_nodes, 1u);
}

TEST(Adversary, WatchdogDetectsAndIsolatesSelectiveForwarders) {
  // With trust on, honest flooding monitors overhear the selective
  // forwarders relaying far less than a diligent neighbor would and
  // isolate them; the ground-truth classification in Network::result()
  // reports detections, not false positives. (A pure blackhole goes
  // RF-silent on flooding and is invisible to overhearing — the partial
  // dropper is the watchdog's quarry.)
  ScenarioConfig c = small_scenario(1, Protocol::flooding_gossip);
  c.phy.transmission_range_m = 60.0;
  for (const std::size_t node : {2u, 5u, 7u, 9u, 11u}) {
    c.faults.plan.adversary(node, faults::AdversaryMode::selective_forward);
  }
  c.with_trust();
  c.trust.watchdog = true;
  const stats::RunResult r = run_scenario(c);

  EXPECT_GT(r.totals.trust_isolations, 0u);
  EXPECT_GT(r.totals.trust_detection_latency_s, 0.0);
  // Honest nodes vastly outnumber misbehaviors seen from them; the
  // watchdog floors must not misfire on them wholesale.
  EXPECT_LT(r.totals.trust_false_positives, r.totals.trust_isolations);
}

TEST(Adversary, RebootWipesOrPreservesTrustStatePerPolicy) {
  // Churn x adversary interaction: a monitor that has isolated a
  // selective forwarder crashes and reboots. RebootPolicy::wipe
  // power-cycles the trust tables (it forgets who it distrusted);
  // preserve models a radio outage, so the isolation survives.
  ScenarioConfig base = small_scenario(1, Protocol::flooding_gossip);
  base.phy.transmission_range_m = 60.0;
  for (const std::size_t node : {2u, 5u, 7u, 9u, 11u}) {
    base.faults.plan.adversary(node, faults::AdversaryMode::selective_forward);
  }
  base.with_trust();
  base.trust.watchdog = true;

  // Probe run: find a monitor that isolated someone by t = 80 s.
  std::size_t monitor = 0;
  {
    Network probe{base};
    probe.run_until(sim::SimTime::seconds(80.0));
    std::size_t found = SIZE_MAX;
    for (std::size_t i = 0; i < probe.node_count(); ++i) {
      if (probe.is_adversary(i)) continue;
      if (probe.adversary(i)->isolated_count() > 0) {
        found = i;
        break;
      }
    }
    ASSERT_NE(found, SIZE_MAX) << "no monitor isolated anyone by t=80";
    monitor = found;
  }

  for (const faults::RebootPolicy policy :
       {faults::RebootPolicy::wipe, faults::RebootPolicy::preserve}) {
    ScenarioConfig c = base;
    c.faults.plan.crash(monitor, 85.0, 20.0, policy);
    Network net{c};
    // Just past the reboot at t = 105 s: the watchdog needs fresh
    // expectation mass before it can re-isolate, so the distinction is
    // visible at this instant.
    net.run_until(sim::SimTime::seconds(105.01));
    if (policy == faults::RebootPolicy::wipe) {
      EXPECT_EQ(net.adversary(monitor)->isolated_count(), 0u)
          << "wipe reboot must forget trust state";
    } else {
      EXPECT_GT(net.adversary(monitor)->isolated_count(), 0u)
          << "preserve reboot must keep trust state";
    }
  }
}

}  // namespace
}  // namespace ag::harness
