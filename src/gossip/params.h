// Anonymous Gossip parameters. Paper-pinned values (section 5.1): one
// gossip message per second per member, at most 10 requested losses per
// message, member cache of 10, lost table of 200, history of 100. Values
// the paper leaves open (p_anon, p_accept, locality weighting) are
// explicit knobs here and are swept by the ablation benches.
#ifndef AG_GOSSIP_PARAMS_H
#define AG_GOSSIP_PARAMS_H

#include <cstddef>
#include <cstdint>

#include "sim/time.h"

namespace ag::gossip {

inline constexpr std::size_t kMaxLostInMessage = 10;
inline constexpr std::size_t kMemberCacheSize = 10;
inline constexpr std::size_t kLostTableCapacity = 200;
inline constexpr std::size_t kHistoryCapacity = 100;
// Nearest-member soft-state refresh, in gossip rounds (edge activation
// is not atomic, so a MODIFY can be lost; refresh repairs the gradient).
inline constexpr std::uint32_t kNmRefreshRounds = 5;
// Base gap between the replies to one request (plus up to 2 ms jitter).
inline constexpr sim::Duration kReplySpacing = sim::Duration::ms(5);

// Direction of information exchange (paper section 4.4, citing Demers et
// al.): the paper implements pull; push and push-pull are provided for
// the design-space ablation.
enum class ExchangeMode : std::uint8_t {
  pull,       // the paper's protocol: request losses, partner answers
  push,       // proactively ship recent history to the partner
  push_pull,  // both in one message
};

struct GossipParams {
  ExchangeMode exchange_mode{ExchangeMode::pull};
  // Most-recent history entries shipped per round in push modes.
  std::size_t push_budget{3};
  bool enabled{true};
  sim::Duration round_interval{sim::Duration::ms(1000)};
  sim::Duration round_jitter{sim::Duration::ms(200)};
  // Probability of an anonymous walk per round; otherwise cached gossip
  // (section 4.3). Falls back to the other mode when the chosen one has
  // no usable target.
  double p_anon{0.5};
  // Probability that a member hit by a walk accepts rather than
  // propagates (section 4.1: "randomly decides").
  double p_accept{0.5};
  // Age out member-cache entries not confirmed by traffic for this long —
  // how peers forget departed/crashed members under churn. zero() (the
  // default, and the paper's static-membership setting) disables aging.
  sim::Duration member_cache_ttl{sim::Duration::zero()};
  // Safety bound on walk length; tree propagation already terminates at
  // leaves, this guards against transient loops mid-repair.
  std::uint8_t walk_ttl{16};
  // Locality bias (section 4.2): next hop chosen with weight
  // 1 / nearest_member^alpha. alpha = 0 disables the bias (ablation).
  double locality_alpha{2.0};
  bool locality_bias{true};
  // Replies per handled gossip request (lost buffer answers plus
  // beyond-expected pushes share this budget).
  std::size_t reply_budget{10};
};

}  // namespace ag::gossip

#endif  // AG_GOSSIP_PARAMS_H
