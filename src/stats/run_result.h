// Per-run measurement record: what the paper's figures are computed from.
#ifndef AG_STATS_RUN_RESULT_H
#define AG_STATS_RUN_RESULT_H

#include <cstdint>
#include <vector>

#include "net/ids.h"
#include "session/session_manager.h"
#include "sim/event_category.h"
#include "stats/summary.h"

namespace ag::stats {

struct MemberResult {
  // "All packets": the member was subscribed for the whole run, so every
  // sourced packet counts against it (the paper's static-membership case).
  static constexpr std::uint64_t kEligibleAll = ~std::uint64_t{0};

  net::NodeId node;
  std::uint64_t received{0};      // unique data packets delivered
  std::uint64_t via_gossip{0};    // of which recovered by gossip replies
  std::uint64_t replies_received{0};
  std::uint64_t replies_useful{0};
  // Packets sourced while this member was subscribed — the denominator of
  // its delivery ratio under churn. kEligibleAll outside fault runs.
  std::uint64_t eligible{kEligibleAll};
  double mean_latency_s{0.0};

  // Paper section 5.5: goodput = % of non-duplicate messages among all
  // messages received through gossip replies. A member that received no
  // replies has no redundant traffic; report 100.
  [[nodiscard]] double goodput_pct() const {
    if (replies_received == 0) return 100.0;
    return 100.0 * static_cast<double>(replies_useful) /
           static_cast<double>(replies_received);
  }
};

struct NetworkTotals {
  std::uint64_t channel_transmissions{0};
  // Phy-level work done by the channel: receptions scheduled, and
  // in-range receivers suppressed by a downed radio or an active
  // partition (identical whether the spatial index or the brute-force
  // scan found the receiver — see phy::Channel).
  std::uint64_t phy_deliveries{0};
  std::uint64_t phy_suppressed_down{0};
  std::uint64_t phy_suppressed_partition{0};
  // Simulator events executed over the run (the denominator of the
  // events/sec throughput the scale bench reports).
  std::uint64_t sim_events{0};
  // Event-mix accounting (sim::EventCategory order, names via
  // sim::event_category_name): events scheduled and executed per
  // category. These counts legitimately differ across engines — the
  // analytic countdown elides per-slot tick events — so they feed
  // BENCH_scale.json and the microbenches, NOT the engine-independent
  // figure JSONs.
  std::uint64_t ev_scheduled[sim::kEventCategoryCount]{};
  std::uint64_t ev_executed[sim::kEventCategoryCount]{};
  // Whole backoff slots consumed by every MAC's contention countdown —
  // engine-independent (ticked or analytically credited), so
  // sim_events + mac_events_elided() is a mode-comparable measure of
  // simulated work.
  std::uint64_t mac_backoff_slots_credited{0};
  // DIFS waits absorbed into a fused slot-countdown deadline (a per-slot
  // countdown runs them as their own mac_difs events, and counts zero).
  std::uint64_t mac_difs_elided{0};
  // Slot ticks the analytic countdown never scheduled: slots consumed
  // minus mac_slot events actually executed. Exactly zero for a per-slot
  // countdown (every consumed slot was its own event).
  [[nodiscard]] std::uint64_t mac_slots_elided() const {
    const std::uint64_t ticked =
        ev_executed[sim::category_index(sim::EventCategory::mac_slot)];
    return mac_backoff_slots_credited > ticked ? mac_backoff_slots_credited - ticked
                                               : 0;
  }
  // Everything the analytic countdown represented without an event:
  // sim_events + this reconstructs what a per-slot countdown executes.
  [[nodiscard]] std::uint64_t mac_events_elided() const {
    return mac_slots_elided() + mac_difs_elided;
  }
  // --- batched phy engine elision accounting (phy/batched_phy.h; both
  // zero in a per-receiver engine) ---
  // Receptions resolved analytically with no completion event scheduled,
  // credited as each would-be finish time passes, so counts stay exact
  // across run cutoffs.
  std::uint64_t phy_rx_elided{0};
  // Live receivers beyond the first swept by one batched completion
  // event (L receivers per event = L-1 per-receiver finish events).
  std::uint64_t phy_rx_coalesced{0};
  // Reception completions the batched engine represented without their
  // own event: executed phy_delivery events + this reconstructs exactly
  // what a per-receiver engine executes (pinned by
  // batched_phy_equivalence_test).
  [[nodiscard]] std::uint64_t phy_events_elided() const {
    return phy_rx_elided + phy_rx_coalesced;
  }
  // Data-plane work (net::DataPlaneCounters, diffed per run): logical
  // NodeTable/DenseMap operations and packet-pool allocation behaviour.
  // Counted at the container API level: one per operation, however many
  // slots a probe visits.
  std::uint64_t table_probes{0};
  std::uint64_t pool_hits{0};
  std::uint64_t pool_misses{0};
  std::uint64_t mac_unicast{0};
  std::uint64_t mac_broadcast{0};
  std::uint64_t mac_collisions{0};
  std::uint64_t mac_queue_drops{0};
  std::uint64_t rreq_originated{0};
  std::uint64_t rerr_sent{0};
  std::uint64_t grph_sent{0};
  std::uint64_t mact_sent{0};
  std::uint64_t data_forwarded{0};
  std::uint64_t gossip_walks{0};
  std::uint64_t gossip_replies{0};
  std::uint64_t nm_updates{0};
  std::uint64_t repairs_started{0};
  std::uint64_t partitions{0};
  std::uint64_t leaders_elected{0};
  // --- DTN custody tier (src/dtn; all zero when custody is off) ---
  std::uint64_t custody_stored{0};            // fresh payloads taken into custody
  std::uint64_t custody_evicted_ttl{0};
  std::uint64_t custody_evicted_capacity{0};
  std::uint64_t custody_offers{0};            // handoff packets put on the air
  std::uint64_t custody_offers_failed{0};
  std::uint64_t custody_accepted{0};          // received handoffs new to the node
  std::uint64_t custody_duplicates{0};
  // --- adversary axis + trust layer (src/faults/adversary.h; all zero
  // when the axis is inactive) ---
  std::uint64_t adversary_nodes{0};       // compromised roles in the run
  std::uint64_t adversary_absorbed{0};    // payloads swallowed by adversaries
  std::uint64_t adversary_poisoned{0};    // gossip rounds poisoned or eaten
  std::uint64_t trust_isolations{0};      // (node, isolator) pairs fired
  std::uint64_t trust_false_positives{0}; // of which named an honest node
  std::uint64_t trust_filtered{0};        // packets/sends refused post-isolation
  // Mean sim-seconds from workload start to a true adversary's FIRST
  // isolation by any monitor, over the adversaries detected at all.
  double trust_detection_latency_s{0.0};
  // True when this run carried the adversary axis (roles assigned or the
  // trust layer armed). Gates the adversary group (stats/run_schema.h).
  bool adversary_active{false};
  // --- user-session layer (src/session; zero sessions when disabled) ---
  session::SessionTotals sessions;
  // True when this run carried the DTN/session subsystem (custody enabled
  // or sessions hosted). Gates the sessions and custody groups
  // (stats/run_schema.h), so runs without the subsystem serialize
  // byte-identically to pre-custody builds.
  bool dtn_active{false};
};

// Record of the faults a run actually experienced (all zero outside
// fault/churn scenarios).
struct FaultStats {
  std::uint64_t crashes{0};
  std::uint64_t reboots{0};
  std::uint64_t leaves{0};
  std::uint64_t joins{0};
  std::uint64_t partitions{0};
  std::uint64_t heals{0};
  double node_down_s{0.0};     // summed per-node radio downtime
  double partitioned_s{0.0};   // wall-clock the channel was cut

  [[nodiscard]] bool any() const {
    return crashes + reboots + leaves + joins + partitions + heals > 0;
  }
};

struct RunResult {
  std::uint64_t seed{0};
  std::uint32_t packets_sent{0};
  std::vector<MemberResult> members;  // receivers (source excluded)
  NetworkTotals totals;
  FaultStats faults;

  [[nodiscard]] std::vector<double> received_per_member() const {
    std::vector<double> out;
    out.reserve(members.size());
    for (const MemberResult& m : members) out.push_back(static_cast<double>(m.received));
    return out;
  }
  [[nodiscard]] Summary received_summary() const { return summarize(received_per_member()); }
  // Packets member `m` is accountable for (kEligibleAll resolves to the
  // full source output).
  [[nodiscard]] std::uint64_t eligible_of(const MemberResult& m) const {
    return m.eligible == MemberResult::kEligibleAll ? packets_sent : m.eligible;
  }
  [[nodiscard]] double delivery_ratio() const {
    if (packets_sent == 0 || members.empty()) return 0.0;
    bool full_run_members = true;
    for (const MemberResult& m : members) {
      if (eligible_of(m) != packets_sent) {
        full_run_members = false;
        break;
      }
    }
    // Static membership (the paper's experiments): the historical formula,
    // kept verbatim so fault-free runs aggregate bit-identically.
    if (full_run_members) {
      return received_summary().mean / static_cast<double>(packets_sent);
    }
    // Churn runs: each member is scored only over the packets sourced
    // while it was subscribed; members never eligible are skipped.
    double sum = 0.0;
    std::size_t scored = 0;
    for (const MemberResult& m : members) {
      const std::uint64_t eligible = eligible_of(m);
      if (eligible == 0) continue;
      sum += static_cast<double>(m.received) / static_cast<double>(eligible);
      ++scored;
    }
    return scored == 0 ? 0.0 : sum / static_cast<double>(scored);
  }
  [[nodiscard]] double mean_goodput_pct() const {
    if (members.empty()) return 100.0;
    double sum = 0.0;
    for (const MemberResult& m : members) sum += m.goodput_pct();
    return sum / static_cast<double>(members.size());
  }
};

}  // namespace ag::stats

#endif  // AG_STATS_RUN_RESULT_H
