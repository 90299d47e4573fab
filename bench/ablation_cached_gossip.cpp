// Ablation: anonymous vs cached gossip mix (paper section 4.3). p_anon=1
// is pure tree random walks; p_anon=0 relies entirely on the member cache
// (which itself is fed by walks' replies, join RREPs and data).
#include <cstdio>

#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Ablation (section 4.3): anonymous vs cached gossip mix at 55 m, 0.2 m/s.",
      "  p_anon = {0, 0.25, 0.5, 0.75, 1} (share of anonymous walks)",
      /*extra_flags=*/nullptr, /*sharded=*/false);
  const std::uint32_t seeds = harness::seeds_from_env(2);
  const std::vector<harness::Protocol> protocols = bench::protocols_from_cli(
      argc, argv, {harness::Protocol::maodv_gossip});

  std::printf("== Ablation: p_anon (anonymous vs cached gossip mix) ==\n");
  std::printf("%-14s %-8s | %10s %6s %6s | %9s | %s\n", "protocol", "p_anon", "avg",
              "min", "max", "goodput%", "tx/run");
  for (harness::Protocol protocol : protocols) {
    const std::string& pname = harness::ProtocolRegistry::instance().name_of(protocol);
    for (double p : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      harness::ScenarioConfig c = bench::paper_base();
      c.with_range(55.0).with_max_speed(0.2);  // lossy enough to need recovery
      c.with_protocol(protocol);
      c.gossip.p_anon = p;
      harness::SeriesPoint pt = harness::run_point(c, seeds, p);
      std::printf("%-14s %-8g | %10.1f %6.0f %6.0f | %9.2f | %llu\n", pname.c_str(),
                  p, pt.received.mean, pt.received.min, pt.received.max,
                  pt.mean("goodput_pct"),
                  static_cast<unsigned long long>(pt.mean("transmissions")));
      std::fflush(stdout);
    }
  }
  std::printf("\n");
  return 0;
}
