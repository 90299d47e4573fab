// Declarative fault & churn plans. A FaultPlan is a list of timed events —
// node crashes/reboots, a geometric channel partition, and dynamic group
// membership (leave/rejoin) — executed against a live network by the
// FaultInjector. Plans are either scripted directly (examples, tests) or
// synthesized deterministically from a FaultSpec (the sweepable axes:
// churn rate, crash fraction, partition duration).
#ifndef AG_FAULTS_FAULT_PLAN_H
#define AG_FAULTS_FAULT_PLAN_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/rng.h"

namespace ag::faults {

// What a crashed node remembers when it comes back up. `wipe` models a
// power-cycle: routing tables, tree state and gossip buffers are gone
// (data-plane sequence counters survive, as if kept in stable storage, so
// peers' duplicate suppression stays coherent). `preserve` models a radio
// outage: the node was isolated but never lost state.
enum class RebootPolicy : std::uint8_t { wipe, preserve };

struct CrashEvent {
  std::size_t node{0};
  double at_s{0.0};
  // Seconds until the node reboots; <= 0 means it never comes back.
  double down_for_s{30.0};
  RebootPolicy policy{RebootPolicy::wipe};
};

// Severs the channel between the two node sets induced by the line
// a*x + b*y <= c, evaluated against node positions at activation time.
// a == b == 0 requests an automatic cut: a vertical line through the
// median x coordinate, which always yields two non-trivial halves.
struct PartitionEvent {
  double at_s{0.0};
  double heal_after_s{60.0};
  double a{0.0};
  double b{0.0};
  double c{0.0};
};

struct MembershipEvent {
  std::size_t node{0};
  double at_s{0.0};
  bool join{false};  // false = leave the group
};

// How a compromised node misbehaves (src/faults/adversary.h implements
// the behaviors as the AdversaryRouter decorator):
//  - blackhole: absorbs every relayed data payload but keeps signaling
//    (control traffic, MAC ACKs), so routing still routes through it.
//  - selective_forward: drops a fixed fraction of relayed payloads, drawn
//    from the node's dedicated rng stream.
//  - gossip_poison: consumes gossip requests addressed to it and answers
//    with fabricated duplicates of messages it does not hold, wasting the
//    initiator's recovery round.
enum class AdversaryMode : std::uint8_t { blackhole, selective_forward, gossip_poison };

// One compromised node. Part of the resolved FaultPlan so scripted and
// synthesized adversaries flow through the same validation and wiring.
struct AdversaryAssignment {
  std::size_t node{0};
  AdversaryMode mode{AdversaryMode::blackhole};
  // selective_forward only: probability a relayed payload is dropped.
  double drop_fraction{0.7};
};

// Exponential decay time constant for all trust counters (sim clock;
// decay is applied lazily on observation — never via timer events).
inline constexpr double kTrustDecayTauS = 30.0;
// Junk-reply scoring (any gossip substrate): isolate a responder whose
// replies are overwhelmingly already-held duplicates — at least
// kTrustMinJunk of them, making up kTrustJunkRatioFloor of its replies.
inline constexpr double kTrustJunkRatioFloor = 0.8;
inline constexpr double kTrustMinJunk = 3.0;
// A neighbor accrues forwarding expectation only while heard within
// this window — i.e. only while provably in radio range right now.
// Kept tight on purpose: with mobility, a wide window keeps crediting
// neighbors that have drifted out of range (whose relays are then
// inaudible by physics, not malice), and those phantom debts are what
// turn fringe nodes into watchdog false positives.
inline constexpr double kTrustNeighborTtlS = 2.0;

// Trust layer configuration (the detection/isolation side of the
// adversary axis — see faults::AdversaryRouter). Disabled by default;
// enabling it on a run with zero adversaries must not change the run
// (the trust tables are bookkeeping only until an isolation fires).
struct TrustParams {
  bool enabled{false};
  // Forwarding watchdog: isolate a neighbor whose observed/expected
  // relay ratio sits below the floor once enough expectation mass has
  // accrued. Only armed on relay-everything substrates (flooding), where
  // "every node rebroadcasts every payload" is the protocol contract —
  // and only when explicitly requested: a promiscuous monitor measures
  // the *product* of honesty, link capture, and MAC queue congestion,
  // so a fringe neighbor under load is locally indistinguishable from a
  // selective forwarder and false positives are inherent (the classic
  // watchdog tradeoff). Off, the trust layer runs only the junk-reply
  // detector, which almost never misfires on honest traffic; the
  // adversary bench's fraction=0 column quantifies each detector's
  // false-positive cost.
  bool watchdog{false};
  double forward_ratio_floor{0.25};
  double min_expected{40.0};
};

struct FaultPlan {
  std::vector<CrashEvent> crashes;
  std::vector<PartitionEvent> partitions;
  std::vector<MembershipEvent> membership;
  std::vector<AdversaryAssignment> adversaries;

  // Timed-event emptiness: adversaries are roles, not events, so they
  // deliberately do not count here — an adversary-only plan must not
  // flip the fault-run paths (per-node sinks, the injector).
  [[nodiscard]] bool empty() const {
    return crashes.empty() && partitions.empty() && membership.empty();
  }
  [[nodiscard]] std::size_t event_count() const {
    return crashes.size() + partitions.size() + membership.size();
  }

  // Fluent builders for scripted scenarios.
  FaultPlan& crash(std::size_t node, double at_s, double down_for_s,
                   RebootPolicy policy = RebootPolicy::wipe) {
    crashes.push_back({node, at_s, down_for_s, policy});
    return *this;
  }
  // Vertical cut at x = line_x (auto-median when line_x is negative).
  FaultPlan& partition_at_x(double line_x, double at_s, double heal_after_s) {
    if (line_x < 0) {
      partitions.push_back({at_s, heal_after_s, 0.0, 0.0, 0.0});
    } else {
      partitions.push_back({at_s, heal_after_s, 1.0, 0.0, line_x});
    }
    return *this;
  }
  FaultPlan& leave(std::size_t node, double at_s) {
    membership.push_back({node, at_s, false});
    return *this;
  }
  FaultPlan& join(std::size_t node, double at_s) {
    membership.push_back({node, at_s, true});
    return *this;
  }
  FaultPlan& adversary(std::size_t node, AdversaryMode mode,
                       double drop_fraction = 0.7) {
    adversaries.push_back({node, mode, drop_fraction});
    return *this;
  }

  // Sanity-checks the plan against a concrete network: node indices in
  // range, non-negative times, positive heal delays, per-node crash
  // intervals non-overlapping, at most one partition active at a time
  // (the channel models a single cut), and adversary roles unique per
  // node. Rejections name the offending event index ("crashes[2]", ...)
  // so a bad sweep points straight at its plan entry. Throws
  // std::invalid_argument.
  void validate(std::size_t node_count) const;
};

// Synthesized crashes wipe volatile state on reboot.
inline constexpr RebootPolicy kCrashPolicy = RebootPolicy::wipe;

// The sweepable fault axes: a spec is expanded into concrete events by
// synthesize_into, deterministically from its own rng stream. All fields
// zero (the default) means no faults at all.
struct FaultSpec {
  // Expected member leave+rejoin cycles per minute across the group
  // (the churn axis of the churn bench).
  double churn_per_min{0.0};
  double churn_downtime_s{20.0};
  // Fraction of nodes (excluding the source) crashed once mid-run.
  double crash_fraction{0.0};
  double crash_downtime_s{30.0};
  // One partition episode of this length, centered in the run, when > 0.
  double partition_duration_s{0.0};
  // Adversary axis: fraction of nodes (excluding the source) flipped
  // into `adversary_mode` for the whole run. Synthesized on its own rng
  // stream by synthesize_adversaries_into — and deliberately NOT part of
  // any(): adversaries are roles, not timed fault events, so arming the
  // axis at fraction zero must not flip the fault-run machinery.
  double adversary_fraction{0.0};
  AdversaryMode adversary_mode{AdversaryMode::blackhole};
  double adversary_drop{0.7};  // selective_forward drop probability

  [[nodiscard]] bool any() const {
    return churn_per_min > 0.0 || crash_fraction > 0.0 || partition_duration_s > 0.0;
  }
  [[nodiscard]] bool adversaries_any() const { return adversary_fraction > 0.0; }
};

// Appends the events a spec describes for one concrete run to `plan`.
// Deterministic in (spec, topology sizes, rng seed); the source node is
// never churned or crashed, so packets_sent stays a meaningful
// denominator. Members are node indices [0, member_count).
void synthesize_into(FaultPlan& plan, const FaultSpec& spec, std::size_t node_count,
                     std::size_t member_count, std::size_t source_index,
                     double duration_s, sim::Rng rng);

// Appends the adversary roles the spec describes: round(fraction *
// node_count) distinct non-source nodes, a uniform sample without
// replacement. Runs on its own dedicated rng stream ("adversary") so an
// armed-but-zero axis draws nothing and perturbs nothing.
void synthesize_adversaries_into(FaultPlan& plan, const FaultSpec& spec,
                                 std::size_t node_count, std::size_t source_index,
                                 sim::Rng rng);

// What a ScenarioConfig carries: scripted events plus a synthesizable
// spec. Both default empty — fault hooks are zero-cost when unused.
struct FaultConfig {
  FaultPlan plan;
  FaultSpec spec;

  [[nodiscard]] bool active() const { return !plan.empty() || spec.any(); }
};

}  // namespace ag::faults

#endif  // AG_FAULTS_FAULT_PLAN_H
