// Configuration of the DTN custody tier (ROADMAP item 4): per-node
// store-and-forward of multicast payloads under explicit budgets, re-offered
// on contact. Disabled by default — a scenario without custody builds the
// exact pre-custody stack (no decorator, no contact monitor, no events).
#ifndef AG_DTN_PARAMS_H
#define AG_DTN_PARAMS_H

#include <cstdint>

#include "sim/time.h"

namespace ag::dtn {

struct CustodyParams {
  // Master switch: off builds the exact pre-custody stack.
  bool enabled{false};

  // Store budgets: a node holds at most max_messages payloads totalling at
  // most max_bytes. Capacity evictions drop the oldest entry first
  // (insertion order — deterministic). max_messages == 0 "arms" custody
  // (decorator + contact monitor in place) while storing nothing; useful
  // to measure the machinery's own cost.
  std::uint32_t max_messages{64};
  std::uint32_t max_bytes{16 * 1024};

  // Entries older than ttl expire against the sim clock. Expiry is checked
  // lazily at every store/offer interaction — no per-entry timer events.
  sim::Duration ttl{sim::Duration::seconds(120.0)};

  // Contact detection: the monitor re-checks neighborhoods every poll
  // interval and fires a contact when a node pair newly comes into range.
  sim::Duration contact_poll{sim::Duration::seconds(2.0)};

  // Oldest-first messages handed to a peer per contact.
  std::uint32_t offer_batch{8};

  // Designated gateway nodes (deterministically spread over the node index
  // space): elevated budgets, and a burst re-offer when a partition heals —
  // they bridge the median-x cut by holding traffic across it.
  std::uint32_t gateway_count{0};
  std::uint32_t gateway_budget_factor{4};
};

}  // namespace ag::dtn

#endif  // AG_DTN_PARAMS_H
