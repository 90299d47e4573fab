// Ablation: MAODV vs MAODV+AG vs blind flooding (the related-work
// comparison of paper section 6 — flooding is reliable but "extremely
// expensive since it generates a large number of messages"). Reports
// delivery plus the cost metric flooding loses on: transmissions per
// delivered packet.
#include <cstdio>

#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Ablation (section 6): delivery and transmissions per delivered packet\n"
      "of MAODV, MAODV+AG and blind flooding at 55 m, 0.2 m/s.",
      "  protocol = {maodv, maodv_gossip, flooding}",
      /*extra_flags=*/nullptr, /*sharded=*/false);
  const std::uint32_t seeds = harness::seeds_from_env(2);
  const std::vector<harness::Protocol> protocols = bench::protocols_from_cli(
      argc, argv, {harness::Protocol::maodv, harness::Protocol::maodv_gossip,
                   harness::Protocol::flooding});

  std::printf("== Ablation: protocol cost comparison (range 55 m, 0.2 m/s) ==\n");
  std::printf("%-14s | %10s %6s %6s | %12s | %s\n", "protocol", "avg", "min", "max",
              "tx/run", "tx per delivered pkt");

  for (harness::Protocol protocol : protocols) {
    harness::ScenarioConfig c = bench::paper_base();
    c.with_range(55.0).with_max_speed(0.2);
    c.with_protocol(protocol);
    harness::SeriesPoint pt = harness::run_point(c, seeds, 0.0);
    double delivered_total = 0.0;
    for (const auto& run : pt.runs) {
      for (const auto& m : run.members) delivered_total += static_cast<double>(m.received);
    }
    delivered_total /= static_cast<double>(pt.runs.size());
    const double cost = delivered_total > 0
                            ? static_cast<double>(pt.mean("transmissions")) / delivered_total
                            : 0.0;
    std::printf("%-14s | %10.1f %6.0f %6.0f | %12llu | %.2f\n",
                harness::ProtocolRegistry::instance().name_of(protocol).c_str(),
                pt.received.mean, pt.received.min, pt.received.max,
                static_cast<unsigned long long>(pt.mean("transmissions")), cost);
    std::fflush(stdout);
  }
  std::printf("\n");
  return 0;
}
