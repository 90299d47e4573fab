// Extension bench (paper section 5.5: "Implementing anonymous gossip with
// other multicast protocols, such as ODMRP ... could also be done in a
// similar manner"): Anonymous Gossip layered over the ODMRP mesh vs over
// the MAODV tree, against both bare protocols.
#include <cstdio>

#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Extension (section 5.5): Anonymous Gossip over the ODMRP mesh vs over\n"
      "the MAODV tree, against both bare protocols, at 55 m, 1 m/s.",
      "  protocol = {maodv, maodv_gossip, odmrp, odmrp_gossip}",
      /*extra_flags=*/nullptr, /*sharded=*/false);
  const std::uint32_t seeds = harness::seeds_from_env(2);
  const std::vector<harness::Protocol> protocols = bench::protocols_from_cli(
      argc, argv, {harness::Protocol::maodv, harness::Protocol::maodv_gossip,
                   harness::Protocol::odmrp, harness::Protocol::odmrp_gossip});

  std::printf("== Extension: Anonymous Gossip over ODMRP (section 5.5) ==\n");
  std::printf("%-14s | %10s %6s %6s | %9s | %s\n", "protocol", "avg", "min", "max",
              "goodput%", "tx/run");
  for (harness::Protocol protocol : protocols) {
    harness::ScenarioConfig c = bench::paper_base();
    c.with_range(55.0).with_max_speed(1.0);  // mobile enough to break paths
    c.with_protocol(protocol);
    harness::SeriesPoint pt = harness::run_point(c, seeds, 0.0);
    std::printf("%-14s | %10.1f %6.0f %6.0f | %9.2f | %llu\n",
                harness::ProtocolRegistry::instance().name_of(protocol).c_str(),
                pt.received.mean, pt.received.min, pt.received.max,
                pt.mean("goodput_pct"),
                static_cast<unsigned long long>(pt.mean("transmissions")));
    std::fflush(stdout);
  }
  std::printf("\n");
  return 0;
}
