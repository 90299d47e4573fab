// MAODV constants. Paper-pinned: group hello interval 5 s (section 5.1).
#ifndef AG_MAODV_PARAMS_H
#define AG_MAODV_PARAMS_H

#include <cstdint>

#include "sim/time.h"

namespace ag::maodv {

inline constexpr sim::Duration kGroupHelloInterval = sim::Duration::ms(5000);
// Join: attempts = 1 + kJoinRetries; first node to exhaust them becomes
// the group leader (draft behaviour for the first member).
inline constexpr std::uint32_t kJoinRetries = 2;
inline constexpr sim::Duration kJoinWait = sim::Duration::ms(750);
inline constexpr std::uint32_t kRepairRetries = 2;
inline constexpr sim::Duration kRepairWait = sim::Duration::ms(750);
// How long a forwarded join RREP's upstream candidate stays usable.
inline constexpr sim::Duration kGraftCandidateLife = sim::Duration::ms(4000);
// Members that miss this many consecutive group hellos assume a silent
// partition and start a repair.
inline constexpr std::uint32_t kAllowedGroupHelloLoss = 3;
inline constexpr sim::Duration kMergeBackoff = sim::Duration::ms(10000);
inline constexpr std::uint8_t kGrphTtl = 32;
inline constexpr std::uint8_t kJoinTtl = 16;
inline constexpr std::uint8_t kRepairTtl = 16;
inline constexpr std::uint8_t kDataTtl = 32;

}  // namespace ag::maodv

#endif  // AG_MAODV_PARAMS_H
