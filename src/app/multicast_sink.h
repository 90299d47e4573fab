// Receiving application: counts unique deliveries (the paper's headline
// metric is "# pkts recvd" per member) and tracks delivery latency.
// Under dynamic membership (fault/churn runs) the sink also keeps its
// subscription intervals and counts a delivery only when the application
// is subscribed now AND was subscribed when the packet was sourced — a
// late gossip recovery of a packet from before a rejoin is not a success.
#ifndef AG_APP_MULTICAST_SINK_H
#define AG_APP_MULTICAST_SINK_H

#include <cstdint>
#include <vector>

#include "net/data.h"
#include "net/dense_map.h"
#include "session/session_manager.h"
#include "sim/simulator.h"

namespace ag::app {

class MulticastSink {
 public:
  explicit MulticastSink(sim::Simulator& sim) : sim_{sim} {}

  // [begin, end); end == SimTime::max() while the subscription is open.
  struct Interval {
    sim::SimTime begin;
    sim::SimTime end;
  };

  // Switches interval tracking on (first call) and records the boundary.
  // A sink never toggled counts every delivery, exactly as the paper's
  // static-membership experiments do.
  void set_subscribed(bool on) {
    const bool first = !tracking_;
    tracking_ = true;
    if (!first && on == subscribed_) return;
    subscribed_ = on;
    if (on) {
      intervals_.push_back({sim_.now(), sim::SimTime::max()});
    } else if (!intervals_.empty() && intervals_.back().end == sim::SimTime::max()) {
      intervals_.back().end = sim_.now();
    }
  }

  // True when the member was subscribed at `t` (always true untracked).
  [[nodiscard]] bool subscribed_at(sim::SimTime t) const {
    if (!tracking_) return true;
    for (const Interval& iv : intervals_) {
      if (t >= iv.begin && t < iv.end) return true;
    }
    return false;
  }

  // Wire as the GossipAgent's deliver callback (already deduplicated —
  // except across a leave/rejoin or crash wipe, which clears the gossip
  // layer's dedup tables; a tracking sink therefore keeps its own).
  void on_deliver(const net::MulticastData& data, bool via_gossip) {
    if (tracking_) {
      if (!subscribed_ || !subscribed_at(data.sent_at)) return;
      if (!seen_.insert(net::msg_key(net::MsgId{data.origin, data.seq}))) {
        return;  // re-delivered after a state wipe; already credited
      }
    }
    ++received_;
    if (via_gossip) ++via_gossip_;
    const double latency = (sim_.now() - data.sent_at).to_seconds();
    latency_sum_s_ += latency;
    if (latency > latency_max_s_) latency_max_s_ = latency;
    // Fan the node-level delivery out to the hosted user sessions (the
    // "users served" metric). Fires only for uniquely counted deliveries,
    // so session credit inherits the sink's MsgId dedup.
    if (sessions_ != nullptr) sessions_->on_unique_delivery(data, sim_.now());
  }

  // Attaches the node's user-session multiplexer (nullptr = none hosted).
  void attach_sessions(session::SessionManager* sessions) { sessions_ = sessions; }

  [[nodiscard]] std::uint64_t received() const { return received_; }
  [[nodiscard]] std::uint64_t via_gossip() const { return via_gossip_; }
  [[nodiscard]] bool tracking() const { return tracking_; }
  [[nodiscard]] bool subscribed() const { return !tracking_ || subscribed_; }
  // An untracked sink counts as ever-subscribed (legacy accounting).
  [[nodiscard]] bool ever_subscribed() const { return !tracking_ || !intervals_.empty(); }
  [[nodiscard]] const std::vector<Interval>& intervals() const { return intervals_; }
  [[nodiscard]] double mean_latency_s() const {
    return received_ == 0 ? 0.0 : latency_sum_s_ / static_cast<double>(received_);
  }
  [[nodiscard]] double max_latency_s() const { return latency_max_s_; }

 private:
  sim::Simulator& sim_;
  session::SessionManager* sessions_{nullptr};
  bool tracking_{false};
  bool subscribed_{false};
  std::vector<Interval> intervals_;
  net::DenseSet seen_;  // populated only while tracking
  std::uint64_t received_{0};
  std::uint64_t via_gossip_{0};
  double latency_sum_s_{0.0};
  double latency_max_s_{0.0};
};

}  // namespace ag::app

#endif  // AG_APP_MULTICAST_SINK_H
