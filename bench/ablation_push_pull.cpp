// Ablation: direction of information exchange (paper section 4.4 cites
// Demers et al. on why this matters). The paper's protocol is pull; this
// bench quantifies what push and push-pull would have cost: pushing
// without knowing the partner's losses ships duplicates, which shows up
// directly in the goodput column.
#include <cstdio>

#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Ablation (section 4.4): pull vs push vs push-pull gossip exchange at\n"
      "55 m, 0.2 m/s.",
      "  exchange mode = {pull, push, push_pull}",
      /*extra_flags=*/nullptr, /*sharded=*/false);
  const std::uint32_t seeds = harness::seeds_from_env(2);
  const std::vector<harness::Protocol> protocols = bench::protocols_from_cli(
      argc, argv, {harness::Protocol::maodv_gossip});

  std::printf("== Ablation: push vs pull gossip (range 55 m, 0.2 m/s) ==\n");
  std::printf("%-10s | %10s %6s %6s | %9s | %s\n", "mode", "avg", "min", "max",
              "goodput%", "tx/run");
  struct Mode {
    const char* name;
    gossip::ExchangeMode mode;
  };
  for (harness::Protocol protocol : protocols) {
    if (protocols.size() > 1) {
      std::printf("-- %s --\n",
                  harness::ProtocolRegistry::instance().name_of(protocol).c_str());
    }
    for (const Mode& m : {Mode{"pull", gossip::ExchangeMode::pull},
                          Mode{"push", gossip::ExchangeMode::push},
                          Mode{"push_pull", gossip::ExchangeMode::push_pull}}) {
      harness::ScenarioConfig c = bench::paper_base();
      c.with_range(55.0).with_max_speed(0.2);
      c.with_protocol(protocol);
      c.gossip.exchange_mode = m.mode;
      harness::SeriesPoint pt = harness::run_point(c, seeds, 0.0);
      std::printf("%-10s | %10.1f %6.0f %6.0f | %9.2f | %llu\n", m.name,
                  pt.received.mean, pt.received.min, pt.received.max,
                  pt.mean("goodput_pct"),
                  static_cast<unsigned long long>(pt.mean("transmissions")));
      std::fflush(stdout);
    }
  }
  std::printf("\n");
  return 0;
}
