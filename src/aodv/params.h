// AODV protocol constants. Paper-pinned values: hello interval 600 ms,
// allowed hello loss 4 (section 5.1). Timing constants are scaled to the
// paper's small (≤ 10 hop) networks rather than the draft's NET_DIAMETER=35.
#ifndef AG_AODV_PARAMS_H
#define AG_AODV_PARAMS_H

#include <cstddef>
#include <cstdint>

#include "sim/time.h"

namespace ag::aodv {

inline constexpr sim::Duration kActiveRouteTimeout = sim::Duration::ms(3000);
inline constexpr sim::Duration kReverseRouteLife = sim::Duration::ms(3000);
inline constexpr sim::Duration kHelloInterval = sim::Duration::ms(600);
inline constexpr std::uint32_t kAllowedHelloLoss = 4;
inline constexpr std::uint32_t kRreqRetries = 2;
// First-wait for RREPs; doubles on each retry (binary backoff).
inline constexpr sim::Duration kRreqWait = sim::Duration::ms(500);
inline constexpr sim::Duration kPathDiscoveryTime = sim::Duration::ms(5000);  // RREQ dedup cache
inline constexpr std::uint8_t kNetTtl = 16;
inline constexpr std::size_t kMaxBufferedPerDest = 5;
inline constexpr sim::Duration kNeighborLifetime =
    kHelloInterval * static_cast<std::int64_t>(kAllowedHelloLoss);

}  // namespace ag::aodv

#endif  // AG_AODV_PARAMS_H
