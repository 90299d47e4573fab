// Ablation: does the nearest-member locality bias (paper section 4.2)
// matter? Runs AG with the gradient-weighted next-hop choice vs uniform
// random walks, comparing delivery and network load.
#include <cstdio>

#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Ablation (section 4.2): nearest-member locality bias vs uniform random\n"
      "walks at 0.2 m/s.",
      "  range_m = {45, 55, 75} x walk bias {gradient, uniform}",
      /*extra_flags=*/nullptr, /*sharded=*/false);
  const std::uint32_t seeds = harness::seeds_from_env(2);
  const std::vector<harness::Protocol> protocols = bench::protocols_from_cli(
      argc, argv, {harness::Protocol::maodv_gossip});

  std::printf("== Ablation: nearest-member locality bias (section 4.2) ==\n");
  std::printf("%-8s %-10s | %10s %6s %6s | %9s | %s\n", "range", "walk bias", "avg",
              "min", "max", "goodput%", "tx/run");
  for (harness::Protocol protocol : protocols) {
    if (protocols.size() > 1) {
      std::printf("-- %s --\n",
                  harness::ProtocolRegistry::instance().name_of(protocol).c_str());
    }
    for (double range : {45.0, 55.0, 75.0}) {
      for (bool bias : {true, false}) {
        harness::ScenarioConfig c = bench::paper_base();
        c.with_range(range).with_max_speed(0.2);
        c.with_protocol(protocol);
        c.gossip.locality_bias = bias;
        harness::SeriesPoint p = harness::run_point(c, seeds, range);
        std::printf("%-8g %-10s | %10.1f %6.0f %6.0f | %9.2f | %llu\n", range,
                    bias ? "gradient" : "uniform", p.received.mean, p.received.min,
                    p.received.max, p.mean("goodput_pct"),
                    static_cast<unsigned long long>(p.mean("transmissions")));
        std::fflush(stdout);
      }
    }
  }
  std::printf("\n");
  return 0;
}
