// Scaling smoke: pushes the simulator well past the paper's 40 nodes
// (ROADMAP: 500+ nodes need the phy spatial index — transmit() used to be
// O(n) per frame). Each node count is timed individually, so the bench
// reports wall-clock and simulator-event throughput per point alongside
// the delivery stats; everything lands in BENCH_scale.json so CI can
// accumulate a perf trajectory. Runs are kept short — this is a
// build-health and throughput check for large networks (default sweep
// now tops out at 2000 nodes on the dense data plane), not a paper
// figure; fig6/fig7 remain the measured node-count sweeps. Range scales
// as 75*sqrt(40/n) to hold mean degree roughly constant while the area
// stays 200x200 m, and the group stays at the paper's 13 members (1/3 of
// 40) so the bench measures simulator scale, not protocol collapse under
// ever-larger groups.
//
// Points up to 1000 nodes simulate the full 80 s (workload 20-60 s), so
// their numbers stay comparable across the perf trajectory. Beyond that
// the simulated duration shrinks to hold node-seconds constant at
// 1000 * 80 — a 5000-node point simulates 16 s — because a saturated
// medium generates events proportional to n * duration and huge points
// must still land inside a CI-sized wall-clock budget. The per-point
// duration is printed and recorded in BENCH_scale.json, and the
// workload window scales with it (25-75 % of the run), so every point
// states exactly what it measured.
//
// Usage: scale_smoke [--protocols=name,name] [--nodes=n,n,...] [--help]
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "figure_common.h"

namespace {

// Node-seconds ceiling: the full-length duration times the largest node
// count that still runs it (see the header comment).
constexpr double kFullDurationS = 80.0;
constexpr double kMaxNodeSeconds = 1000.0 * kFullDurationS;

// Per-series fields in BENCH_scale.json.
constexpr ag::stats::Groups kGroups = ag::stats::groups_of(
    ag::stats::Group::summary, ag::stats::Group::core, ag::stats::Group::phy_work);

}  // namespace

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Scaling smoke: delivery, wall time and simulator-event throughput per\n"
      "node count, at constant mean degree over short runs.",
      "  node_count = {40, 120, 250, 500, 1000, 2000}",
      "  --nodes=N[,N...]  node counts to run instead, each in [2, 1000000]\n",
      /*sharded=*/false);
  harness::install_interrupt_handlers();
  const std::uint32_t seeds = harness::seeds_from_env(1);
  const std::vector<harness::Protocol> protocols =
      bench::protocols_from_cli(argc, argv, bench::headline_protocols());
  const std::vector<std::size_t> node_counts =
      bench::nodes_from_cli(argc, argv, {40, 120, 250, 500, 1000, 2000});

  harness::ScenarioConfig base = bench::paper_base();

  std::printf("== Scaling smoke (constant mean degree, short run) ==\n");
  std::printf("%-8s %-7s %-10s %-12s %-12s per-protocol received avg (delivery)\n",
              "#nodes", "sim(s)", "wall(s)", "sim events", "events/s");

  std::vector<bench::TimedCell> cells;
  for (const std::size_t n : node_counts) {
    if (harness::interrupt_requested()) {
      std::fprintf(stderr, "%s: interrupted; no outputs written\n", argv[0]);
      return harness::interrupt_exit_code();
    }
    // Node-seconds cap: full 80 s through 1000 nodes, shrinking beyond
    // (see the header comment). Workload occupies the middle half.
    const double duration_s =
        std::min(kFullDurationS, kMaxNodeSeconds / static_cast<double>(n));
    harness::ScenarioConfig point_base = base;
    point_base.duration = sim::SimTime::seconds(duration_s);
    point_base.workload.start = sim::SimTime::seconds(0.25 * duration_s);
    point_base.workload.end = sim::SimTime::seconds(0.75 * duration_s);
    std::ostringstream keys;
    keys << "\"nodes\": " << n << ", \"sim_duration_s\": " << duration_s;
    cells.push_back(bench::run_timed_cell(
        keys.str(),
        harness::Experiment::sweep("node_count", {static_cast<double>(n)},
                                   [](harness::ScenarioConfig& c, double x) {
                                     c.with_nodes(static_cast<std::size_t>(x))
                                         .with_range(75.0 * std::sqrt(40.0 / x))
                                         .with_max_speed(1.0);
                                     c.member_fraction = std::min(1.0, 13.0 / x);
                                   })
            .base(point_base)
            .protocols(protocols)
            .seeds(seeds)
            .parallel()
            .name("scale_smoke")));
    const bench::TimedCell& cell = cells.back();
    const std::uint64_t events = bench::event_work(cell.result).sim_events;
    std::printf("%-8zu %-7.0f %-10.2f %-12llu %-12.3g",
                n, duration_s, cell.wall_s, static_cast<unsigned long long>(events),
                cell.wall_s > 0.0 ? static_cast<double>(events) / cell.wall_s : 0.0);
    for (const harness::FigureSeries& s : cell.result.series) {
      const harness::SeriesPoint& p = s.points.front();
      std::printf("  %s=%.1f (%.2f)", s.name.c_str(), p.received.mean,
                  p.mean("delivery_ratio"));
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  if (harness::interrupt_requested()) {
    std::fprintf(stderr, "%s: interrupted; no outputs written\n", argv[0]);
    return harness::interrupt_exit_code();
  }
  std::ostringstream keys;
  keys << "  \"experiment\": \"scale_smoke\",\n"
       << "  \"param\": \"node_count\",\n"
       << "  \"seeds\": " << seeds << ",\n";
  if (!bench::write_cells_json("BENCH_scale.json", keys.str(), cells, kGroups)) {
    std::fprintf(stderr, "error: failed to write BENCH_scale.json\n");
    return 1;
  }
  std::printf("(json written to BENCH_scale.json; %u seeds; wall-clock covers "
              "all parallel jobs of a point)\n", seeds);
  return 0;
}
