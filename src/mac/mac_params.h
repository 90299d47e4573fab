// IEEE 802.11 DSSS DCF timing constants (2 Mbps, the paper's MAC).
#ifndef AG_MAC_MAC_PARAMS_H
#define AG_MAC_MAC_PARAMS_H

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/time.h"

namespace ag::sim {
class Simulator;
}

namespace ag::mac {

class Countdown;

struct MacParams {
  // Builds a MAC's contention countdown (see mac::FusedCountdown).
  using CountdownFactory = std::unique_ptr<Countdown> (*)(sim::Simulator& sim,
                                                          const MacParams& params,
                                                          sim::Duration max_propagation,
                                                          std::function<void()> done);

  sim::Duration slot{sim::Duration::us(20)};
  sim::Duration sifs{sim::Duration::us(10)};
  sim::Duration difs{sim::Duration::us(50)};
  std::uint32_t cw_min{31};
  std::uint32_t cw_max{1023};
  std::uint32_t retry_limit{7};
  std::size_t queue_limit{50};  // interface queue, drop tail (ns-2 default)
  // Engine seam, set only by tests: nullptr runs mac::FusedCountdown; a
  // test installs an oracle countdown here (tests/reference/).
  CountdownFactory countdown{nullptr};
};

}  // namespace ag::mac

#endif  // AG_MAC_MAC_PARAMS_H
