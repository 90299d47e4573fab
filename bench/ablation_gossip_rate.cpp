// Ablation: gossip rate (paper section 5.5 — "the gossip rate should be
// tuned so that the network does not get congested and the goodput is
// nearly 100 percent"). Sweeps the round interval from 4 s to 250 ms on
// the ExperimentBuilder (seeds in parallel, JSON emitted).
#include <cstdio>

#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Ablation (section 5.5): gossip round interval at 55 m, 0.2 m/s;\n"
      "writes BENCH_ablation_gossip_rate.json.",
      "  gossip_interval_ms = {4000, 2000, 1000, 500, 250}",
      /*extra_flags=*/nullptr, /*sharded=*/false);
  harness::install_interrupt_handlers();
  const std::uint32_t seeds = harness::seeds_from_env(2);

  harness::ScenarioConfig base = bench::paper_base();
  base.with_range(55.0).with_max_speed(0.2);

  harness::ExperimentResult result =
      harness::Experiment::sweep("gossip_interval_ms", {4000, 2000, 1000, 500, 250})
          .base(base)
          .protocols(bench::protocols_from_cli(argc, argv,
                                               {harness::Protocol::maodv_gossip}))
          .seeds(seeds)
          .parallel()
          .name("ablation_gossip_rate")
          .run();
  if (harness::interrupt_requested()) {
    std::fprintf(stderr, "%s: interrupted; no outputs written\n", argv[0]);
    return harness::interrupt_exit_code();
  }

  std::printf("== Ablation: gossip round interval ==\n");
  std::printf("%-14s %-12s | %10s %6s %6s | %9s | %s\n", "protocol", "interval(ms)",
              "avg", "min", "max", "goodput%", "tx/run");
  for (const harness::FigureSeries& series : result.series) {
    for (const harness::SeriesPoint& pt : series.points) {
      std::printf("%-14s %-12g | %10.1f %6.0f %6.0f | %9.2f | %llu\n",
                  series.name.c_str(), pt.x, pt.received.mean, pt.received.min,
                  pt.received.max, pt.mean("goodput_pct"),
                  static_cast<unsigned long long>(pt.mean("transmissions")));
    }
  }
  if (result.write_json("BENCH_ablation_gossip_rate.json")) {
    std::printf("(json written to BENCH_ablation_gossip_rate.json; %u seeds)\n",
                seeds);
  } else {
    std::fprintf(stderr, "error: failed to write BENCH_ablation_gossip_rate.json\n");
  }
  return 0;
}
