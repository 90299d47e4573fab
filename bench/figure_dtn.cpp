// Custody-tier figure: "users served" under duty-cycled user sessions,
// swept over custody budget x duty cycle x churn. Every member node
// multiplexes 200 logical users (SessionManager), each subscribing at a
// staggered start and sleeping per its duty cycle; a delivery only
// counts for a user that is awake (or wakes within the wake TTL). The
// custody tier re-offers undeliverable payloads on contact, after
// reboots, and across the partition heal via gateway nodes, so the
// budget axis shows how much store-and-forward buys back from users the
// plain protocols miss. budget=0 is the custody-off baseline in-figure.
//
// Runs every registered protocol by default (custody is a decorator, so
// all five substrates get the tier for free). At full scale the paper's
// 40-node area is kept; --mega instead runs 10000 nodes with every node
// a member, i.e. 10000 x 200 = 2M logical users, as a scale exercise.
//
// Usage: figure_dtn [--smoke] [--mega] [--protocols=name,name]
//   --smoke shrinks the grid for CI (short duration, 2x1x2 grid).
//   --mega  10k nodes / 2M users, one cell (implies the smoke duration).
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "figure_common.h"

namespace {

// Per-series fields in BENCH_dtn.json (and the progress lines).
constexpr ag::stats::Groups kGroups =
    ag::stats::groups_of(ag::stats::Group::summary, ag::stats::Group::core,
                         ag::stats::Group::sessions, ag::stats::Group::custody);

}  // namespace

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Custody-tier figure: users served under duty-cycled sessions, swept\n"
      "over custody budget x duty cycle x churn (all registered protocols).",
      "  custody_max_msgs = {0,16,64,256} x session duty x churn_per_min",
      "  --smoke           2x1x2 grid, short duration (CI)\n"
      "  --mega            10k nodes / 2M logical users, one cell\n",
      /*sharded=*/false);
  harness::install_interrupt_handlers();
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const bool mega = bench::has_flag(argc, argv, "--mega");
  const std::uint32_t seeds = harness::seeds_from_env(smoke || mega ? 1 : 2);
  const std::vector<harness::Protocol> protocols = bench::protocols_from_cli(
      argc, argv, harness::ProtocolRegistry::instance().all());
  constexpr std::uint32_t kSessionsPerNode = 200;

  // Fault background shared by every cell (the figure_churn recipe):
  // 15 % of nodes crash with state wipe and a mid-run partition cuts the
  // area in half — exactly the regimes custody is supposed to bridge.
  harness::ScenarioConfig base = bench::paper_base();
  base.with_range(65.0).with_max_speed(1.0);
  base.faults.spec.crash_fraction = 0.15;
  base.faults.spec.crash_downtime_s = smoke || mega ? 20.0 : 60.0;
  base.faults.spec.partition_duration_s = smoke || mega ? 20.0 : 60.0;
  base.faults.spec.churn_downtime_s = smoke || mega ? 15.0 : 30.0;
  if (smoke || mega) {
    base.duration = sim::SimTime::seconds(120.0);
    base.workload.start = sim::SimTime::seconds(20.0);
    base.workload.end = sim::SimTime::seconds(100.0);
  }
  // User sessions: 200 logical users per member node, 60 s activity
  // period, subscriptions staggered across the first half of the run.
  base.sessions.per_node = kSessionsPerNode;
  base.sessions.period_s = 60.0;
  base.sessions.wake_ttl_s = 30.0;
  base.sessions.subscribe_spread_s = smoke || mega ? 40.0 : 200.0;
  // Custody shape (the budget axis only sweeps max_messages): two
  // gateway nodes bridge the partition cut with 4x the per-node budget.
  base.custody.gateway_count = 2;
  if (mega) {
    // 10000 nodes, every node a member: 10000 x 200 = 2M logical users.
    // Range scales as in scale_smoke to hold mean degree constant.
    base.with_nodes(10000).with_range(75.0 * std::sqrt(40.0 / 10000.0));
    base.member_fraction = 1.0;
  }

  const std::vector<double> duties =
      smoke ? std::vector<double>{1.0, 0.25}
            : mega ? std::vector<double>{0.25}
                   : std::vector<double>{1.0, 0.5, 0.25};
  const std::vector<double> churns =
      smoke || mega ? std::vector<double>{4} : std::vector<double>{0, 4};
  const std::vector<double> budgets =
      smoke ? std::vector<double>{0, 64}
            : mega ? std::vector<double>{64} : std::vector<double>{0, 16, 64, 256};

  std::printf("== Custody tier x user sessions (%u users/node%s) ==\n",
              kSessionsPerNode, mega ? ", --mega: 2M users total" : "");

  std::vector<bench::TimedCell> cells;
  for (const double duty : duties) {
    for (const double churn : churns) {
      for (const double budget : budgets) {
        if (harness::interrupt_requested()) {
          std::fprintf(stderr, "%s: interrupted; no outputs written\n", argv[0]);
          return harness::interrupt_exit_code();
        }
        harness::ScenarioConfig cell_base = base;
        cell_base.sessions.duty = duty;
        cell_base.faults.spec.churn_per_min = churn;
        char label[96];
        std::snprintf(label, sizeof label, "duty=%.2f churn=%g budget=%g",
                      duty, churn, budget);
        std::printf("-- %s --\n", label);
        std::fflush(stdout);
        std::ostringstream keys;
        keys << "\"label\": \"" << label << "\", \"nodes\": " << cell_base.node_count
             << ", \"duty\": " << duty << ", \"churn_per_min\": " << churn
             << ", \"custody_max_msgs\": " << budget;
        cells.push_back(bench::run_timed_cell(
            keys.str(), harness::Experiment::sweep("custody_max_msgs", {budget})
                            .base(cell_base)
                            .protocols(protocols)
                            .seeds(seeds)
                            .parallel()
                            .name("dtn")));
        bench::print_series_lines(cells.back().result, kGroups);
      }
    }
  }

  if (harness::interrupt_requested()) {
    std::fprintf(stderr, "%s: interrupted; no outputs written\n", argv[0]);
    return harness::interrupt_exit_code();
  }
  std::ostringstream keys;
  keys << "  \"experiment\": \"dtn\",\n"
       << "  \"param\": \"custody_max_msgs\",\n"
       << "  \"seeds\": " << seeds << ",\n"
       << "  \"sessions_per_node\": " << kSessionsPerNode << ",\n";
  if (!bench::write_cells_json("BENCH_dtn.json", keys.str(), cells, kGroups)) {
    std::fprintf(stderr, "error: failed to write BENCH_dtn.json\n");
    return 1;
  }
  std::printf("(json written to BENCH_dtn.json; %u seeds; "
              "scripts/scale_summary.py renders it too)\n", seeds);
  return 0;
}
