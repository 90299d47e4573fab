// Test-only oracle engines for the two analytic production engines. The
// simulator never names them: a test selects them at construction through
// PhyParams::engine and MacParams::countdown, so a whole run selects them
// through ScenarioConfig (with_reference_phy / with_per_slot_mac).
#ifndef AG_TESTS_REFERENCE_ENGINES_H
#define AG_TESTS_REFERENCE_ENGINES_H

#include <functional>
#include <memory>

#include "harness/scenario.h"
#include "mac/countdown.h"
#include "phy/phy_engine.h"

namespace ag::reference {

// Per-receiver phy: each radio keeps a list of its receptions in progress
// and every (frame, receiver) pair gets its own finish event. The oracle
// for phy::BatchedPhy, which must fire every listener callback in the same
// order.
[[nodiscard]] std::unique_ptr<phy::PhyEngine> per_receiver_phy(sim::Simulator& sim,
                                                               phy::Channel& channel);

// Per-slot contention: a mac_difs event for DIFS deference, then one
// mac_slot event per backoff slot. The oracle for mac::FusedCountdown.
[[nodiscard]] std::unique_ptr<mac::Countdown> per_slot_countdown(
    sim::Simulator& sim, sim::Duration max_propagation, std::function<void()> done);

[[nodiscard]] inline harness::ScenarioConfig with_reference_phy(harness::ScenarioConfig c) {
  c.phy.engine = &per_receiver_phy;
  return c;
}
[[nodiscard]] inline harness::ScenarioConfig with_per_slot_mac(harness::ScenarioConfig c) {
  c.mac.countdown = &per_slot_countdown;
  return c;
}

}  // namespace ag::reference

#endif  // AG_TESTS_REFERENCE_ENGINES_H
