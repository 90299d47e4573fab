// Configuration of the DTN custody tier (ROADMAP item 4): per-node
// store-and-forward of multicast payloads under explicit budgets, re-offered
// on contact. Disabled by default — a scenario without custody builds the
// exact pre-custody stack (no decorator, no contact monitor, no events).
#ifndef AG_DTN_PARAMS_H
#define AG_DTN_PARAMS_H

#include <cstdint>

#include "sim/time.h"

namespace ag::dtn {

// Byte budget of one node's store (see CustodyParams::max_messages).
inline constexpr std::uint32_t kMaxBytes = 16 * 1024;
// Entries older than this expire against the sim clock. Expiry is checked
// lazily at every store/offer interaction — no per-entry timer events.
inline constexpr sim::Duration kCustodyTtl = sim::Duration::seconds(120.0);
// Contact detection: the monitor re-checks neighborhoods every poll
// interval and fires a contact when a node pair newly comes into range.
inline constexpr sim::Duration kContactPoll = sim::Duration::seconds(2.0);
// Oldest-first messages handed to a peer per contact.
inline constexpr std::uint32_t kOfferBatch = 8;
// A gateway's store budgets are this multiple of an ordinary node's.
inline constexpr std::uint32_t kGatewayBudgetFactor = 4;

struct CustodyParams {
  // Master switch: off builds the exact pre-custody stack.
  bool enabled{false};

  // Store budget: a node holds at most max_messages payloads totalling at
  // most kMaxBytes. Capacity evictions drop the oldest entry first
  // (insertion order — deterministic). max_messages == 0 "arms" custody
  // (decorator + contact monitor in place) while storing nothing; useful
  // to measure the machinery's own cost.
  std::uint32_t max_messages{64};

  // Designated gateway nodes (deterministically spread over the node index
  // space): kGatewayBudgetFactor times the budgets, and a burst re-offer
  // when a partition heals — they bridge the median-x cut by holding
  // traffic across it.
  std::uint32_t gateway_count{0};
};

}  // namespace ag::dtn

#endif  // AG_DTN_PARAMS_H
