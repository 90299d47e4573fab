// IEEE 802.11 DSSS DCF timing constants (2 Mbps, the paper's MAC).
#ifndef AG_MAC_MAC_PARAMS_H
#define AG_MAC_MAC_PARAMS_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "sim/time.h"

namespace ag::sim {
class Simulator;
}

namespace ag::mac {

class Countdown;

inline constexpr sim::Duration kSlot = sim::Duration::us(20);
inline constexpr sim::Duration kSifs = sim::Duration::us(10);
inline constexpr sim::Duration kDifs = sim::Duration::us(50);
inline constexpr std::uint32_t kCwMin = 31;
inline constexpr std::uint32_t kCwMax = 1023;
inline constexpr std::uint32_t kRetryLimit = 7;
inline constexpr std::size_t kQueueLimit = 50;  // interface queue, drop tail (ns-2 default)

struct MacParams {
  // Builds a MAC's contention countdown (see mac::FusedCountdown).
  using CountdownFactory = std::unique_ptr<Countdown> (*)(sim::Simulator& sim,
                                                          sim::Duration max_propagation,
                                                          std::function<void()> done);

  // Engine seam, set only by tests: nullptr runs mac::FusedCountdown; a
  // test installs an oracle countdown here (tests/reference/).
  CountdownFactory countdown{nullptr};
};

}  // namespace ag::mac

#endif  // AG_MAC_MAC_PARAMS_H
