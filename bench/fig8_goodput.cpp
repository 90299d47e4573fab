// Figure 8: gossip goodput (% of non-duplicate messages among gossip-reply
// messages) at each group member, for two transmission ranges x two
// maximum speeds. The paper reports 97-100 % everywhere — nearly every
// gossip reply carried a useful (non-redundant) message.
#include <cstdio>
#include <string>
#include <vector>

#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Paper figure 8 (section 5.5): gossip goodput — % non-duplicate messages\namong gossip-reply traffic.",
      "  range_m = {45..85}", /*extra_flags=*/nullptr, /*sharded=*/false);
  const std::uint32_t seeds = harness::seeds_from_env(3);
  // Goodput is a gossip metric; default to the paper's gossip-over-MAODV,
  // but any registered substrate can be measured via --protocols=.
  const std::vector<harness::Protocol> protocols = bench::protocols_from_cli(
      argc, argv, {harness::Protocol::maodv_gossip});

  struct Config {
    double range;
    double speed;
  };
  const std::vector<Config> configs = {{45, 0.2}, {75, 0.2}, {45, 2.0}, {75, 2.0}};

  std::printf("== Figure 8: Goodput at different group members ==\n");
  std::printf("(averaged over %u seeds; paper used 10 — set AG_SEEDS to change)\n", seeds);
  std::printf("%-14s | per-member goodput (%%)                          | mean\n",
              "range,speed");

  std::string csv = "protocol,range,speed,member,goodput_pct\n";

  for (harness::Protocol protocol : protocols) {
    const std::string& pname = harness::ProtocolRegistry::instance().name_of(protocol);
    if (protocols.size() > 1) std::printf("-- %s --\n", pname.c_str());
    for (const Config& cfg : configs) {
      harness::ScenarioConfig c = bench::paper_base();
      c.with_range(cfg.range).with_max_speed(cfg.speed);
      c.with_protocol(protocol);

      // Per-member goodput, averaged across seeds.
      std::vector<double> sums;
      for (std::uint32_t s = 1; s <= seeds; ++s) {
        stats::RunResult r = harness::run_scenario(c.with_seed(s));
        if (sums.empty()) sums.assign(r.members.size(), 0.0);
        for (std::size_t i = 0; i < r.members.size(); ++i) {
          sums[i] += r.members[i].goodput_pct();
        }
      }
      std::printf("%4.0fm, %.1fm/s |", cfg.range, cfg.speed);
      double total = 0.0;
      for (std::size_t i = 0; i < sums.size(); ++i) {
        const double g = sums[i] / seeds;
        total += g;
        std::printf(" %5.1f", g);
        char row[96];
        std::snprintf(row, sizeof row, ",%g,%g,%zu,%f\n", cfg.range, cfg.speed, i + 1, g);
        csv += pname + row;
      }
      std::printf(" | %5.1f\n",
                  sums.empty() ? 100.0 : total / static_cast<double>(sums.size()));
      std::fflush(stdout);
    }
  }
  if (!harness::write_file_atomic("fig8.csv", [&csv](std::ostream& out) { out << csv; })) {
    std::fprintf(stderr, "error: failed to write fig8.csv\n");
    return 1;
  }
  std::printf("(csv written to fig8.csv)\n\n");
  return 0;
}
