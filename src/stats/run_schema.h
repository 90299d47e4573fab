// The run-record schema: one line per field of a stats::RunResult. This
// list alone drives the shard checkpoint codec (harness/shard.cpp), the
// seed aggregate (harness::aggregate_point) and every BENCH_*.json writer
// (harness::write_point_fields), so adding a counter is a struct member
// plus one line here.
//
// A line gives its field one JSON key (the same in checkpoints and BENCH
// files), a Group and a Fold. The visit_* functions walk a record (const
// or not) through a visitor V, which provides:
//   v.field(key, value)               stored per run only: the header,
//                                     member and fault records
//   v.field(key, value, group, fold)  a stored NetworkTotals field
//   v.gate(key, flag, groups)         a stored flag: a point carries the
//                                     gated `groups` when one of its runs
//                                     set it
//   v.ratio(key, value, group)        a per-run ratio computed from stored
//                                     fields: never stored, folded as a mean
// The checkpoint visitors store every field and gate; the seed folder
// averages every line whose fold is not `none`.
#ifndef AG_STATS_RUN_SCHEMA_H
#define AG_STATS_RUN_SCHEMA_H

#include <cstdint>
#include <string_view>
#include <variant>

#include "stats/run_result.h"

namespace ag::stats {

// Field groups, in the order BENCH writers print them. A writer picks the
// groups it prints; ExperimentResult::write_json prints the groups a
// point carries (the ungated ones, plus sessions and custody when a run
// had the DTN tier, adversary when a run had the adversary axis).
enum class Group : std::uint8_t {
  summary,    // per-member receive summary and per-run delivery/goodput
  core,       // MAC, routing and gossip work
  phy_work,   // channel receptions, suppression and data-plane operations
  sessions,   // user-session layer (src/session)
  custody,    // DTN custody tier (src/dtn)
  adversary,  // adversary roles and the trust layer (src/faults)
};
inline constexpr unsigned kGroupCount = 6;

// A set of groups, one bit per Group.
using Groups = std::uint32_t;
template <typename... G>
[[nodiscard]] constexpr Groups groups_of(G... gs) {
  return ((Groups{1} << static_cast<unsigned>(gs)) | ... | Groups{0});
}

// How a sweep point folds its seeds' values of a field.
enum class Fold : std::uint8_t {
  none,   // recorded per run (checkpoints) only; never averaged or printed
  floor,  // integer mean of a u64 field: its sum floor-divided by the seeds
  mean,   // mean as a double (doubles, ratios, counters whose fraction matters)
};

// One folded field of a sweep point: its seed mean, an integer under
// Fold::floor and a double otherwise.
struct FieldMean {
  std::string_view key;
  Group group{Group::core};
  std::variant<std::uint64_t, double> value;

  bool operator==(const FieldMean&) const = default;
};

template <typename Run, typename V>
void visit_header(Run& r, V& v) {
  v.field("seed", r.seed);
  v.field("packets_sent", r.packets_sent);
}

// Per-member record. A point pools every member's `received` of every
// seed into one summary (SeriesPoint::received) instead of folding lines.
template <typename Member, typename V>
void visit_member(Member& m, V& v) {
  v.field("node", m.node);
  v.field("received", m.received);
  v.field("via_gossip", m.via_gossip);
  v.field("replies_received", m.replies_received);
  v.field("replies_useful", m.replies_useful);
  v.field("eligible", m.eligible);
  v.field("mean_latency_s", m.mean_latency_s);
}

// The summary group's per-run ratios, computed from the whole record.
template <typename V>
void visit_run_ratios(const RunResult& r, V& v) {
  v.ratio("delivery_ratio", r.delivery_ratio(), Group::summary);
  v.ratio("goodput_pct", r.mean_goodput_pct(), Group::summary);
}

template <typename Totals, typename V>
void visit_totals(Totals& t, V& v) {
  v.field("transmissions", t.channel_transmissions, Group::core, Fold::floor);
  v.field("deliveries", t.phy_deliveries, Group::phy_work, Fold::floor);
  v.field("suppressed_down", t.phy_suppressed_down, Group::phy_work, Fold::floor);
  v.field("suppressed_partition", t.phy_suppressed_partition, Group::phy_work, Fold::floor);
  v.field("sim_events", t.sim_events, Group::core, Fold::none);
  v.field("ev_scheduled", t.ev_scheduled, Group::core, Fold::none);
  v.field("ev_executed", t.ev_executed, Group::core, Fold::none);
  v.field("mac_backoff_slots_credited", t.mac_backoff_slots_credited, Group::core, Fold::none);
  v.field("mac_difs_elided", t.mac_difs_elided, Group::core, Fold::none);
  v.field("phy_rx_elided", t.phy_rx_elided, Group::phy_work, Fold::none);
  v.field("phy_rx_coalesced", t.phy_rx_coalesced, Group::phy_work, Fold::none);
  v.field("table_probes", t.table_probes, Group::phy_work, Fold::floor);
  v.field("pool_hits", t.pool_hits, Group::phy_work, Fold::floor);
  v.field("pool_misses", t.pool_misses, Group::phy_work, Fold::floor);
  v.field("mac_unicast", t.mac_unicast, Group::core, Fold::none);
  v.field("mac_broadcast", t.mac_broadcast, Group::core, Fold::none);
  v.field("mac_collisions", t.mac_collisions, Group::core, Fold::none);
  v.field("mac_queue_drops", t.mac_queue_drops, Group::core, Fold::none);
  v.field("rreq_originated", t.rreq_originated, Group::core, Fold::none);
  v.field("rerr_sent", t.rerr_sent, Group::core, Fold::none);
  v.field("grph_sent", t.grph_sent, Group::core, Fold::none);
  v.field("mact_sent", t.mact_sent, Group::core, Fold::none);
  v.field("data_forwarded", t.data_forwarded, Group::core, Fold::none);
  v.field("gossip_walks", t.gossip_walks, Group::core, Fold::none);
  v.field("gossip_replies", t.gossip_replies, Group::core, Fold::none);
  v.field("nm_updates", t.nm_updates, Group::core, Fold::none);
  v.field("repairs_started", t.repairs_started, Group::core, Fold::none);
  v.field("partitions", t.partitions, Group::core, Fold::none);
  v.field("leaders_elected", t.leaders_elected, Group::core, Fold::none);
  v.field("custody_stored", t.custody_stored, Group::custody, Fold::floor);
  v.field("custody_evicted_ttl", t.custody_evicted_ttl, Group::custody, Fold::none);
  v.field("custody_evicted_capacity", t.custody_evicted_capacity, Group::custody, Fold::none);
  v.field("custody_offers", t.custody_offers, Group::custody, Fold::floor);
  v.field("custody_offers_failed", t.custody_offers_failed, Group::custody, Fold::none);
  v.field("custody_accepted", t.custody_accepted, Group::custody, Fold::floor);
  v.field("custody_duplicates", t.custody_duplicates, Group::custody, Fold::none);
  v.field("adversary_nodes", t.adversary_nodes, Group::adversary, Fold::floor);
  v.field("adversary_absorbed", t.adversary_absorbed, Group::adversary, Fold::floor);
  v.field("adversary_poisoned", t.adversary_poisoned, Group::adversary, Fold::floor);
  v.field("trust_isolations", t.trust_isolations, Group::adversary, Fold::mean);
  v.field("trust_false_positives", t.trust_false_positives, Group::adversary, Fold::mean);
  v.field("trust_filtered", t.trust_filtered, Group::adversary, Fold::floor);
  v.field("detection_latency_s", t.trust_detection_latency_s, Group::adversary, Fold::mean);
  v.gate("adversary_active", t.adversary_active, groups_of(Group::adversary));
  v.field("sessions", t.sessions.sessions, Group::sessions, Fold::floor);
  v.field("users_served", t.sessions.users_served, Group::sessions, Fold::floor);
  v.field("user_eligible", t.sessions.user_eligible, Group::sessions, Fold::floor);
  v.ratio("users_served_ratio", t.sessions.served_ratio(), Group::sessions);
  v.gate("dtn_active", t.dtn_active, groups_of(Group::sessions, Group::custody));
}

template <typename Faults, typename V>
void visit_faults(Faults& f, V& v) {
  v.field("crashes", f.crashes);
  v.field("reboots", f.reboots);
  v.field("leaves", f.leaves);
  v.field("joins", f.joins);
  v.field("partitions", f.partitions);
  v.field("heals", f.heals);
  v.field("node_down_s", f.node_down_s);
  v.field("partitioned_s", f.partitioned_s);
}

}  // namespace ag::stats

#endif  // AG_STATS_RUN_SCHEMA_H
