// ODMRP timing constants (WCNC '99 defaults, scaled like our AODV ones).
#ifndef AG_ODMRP_PARAMS_H
#define AG_ODMRP_PARAMS_H

#include <cstdint>

#include "sim/time.h"

namespace ag::odmrp {

// Join Query refresh while a source is active.
inline constexpr sim::Duration kRefreshInterval = sim::Duration::ms(3000);
// Forwarding-group membership lifetime (the classic 3x refresh).
inline constexpr sim::Duration kFgTimeout = sim::Duration::ms(9000);
// A source keeps querying this long after its last data packet.
inline constexpr sim::Duration kSourceLinger = sim::Duration::ms(6000);
inline constexpr std::uint8_t kQueryTtl = 32;
inline constexpr std::uint8_t kDataTtl = 32;

}  // namespace ag::odmrp

#endif  // AG_ODMRP_PARAMS_H
