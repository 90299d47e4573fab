#include "dtn/contact_monitor.h"

#include <algorithm>

namespace ag::dtn {

ContactMonitor::ContactMonitor(sim::Simulator& sim,
                               const mobility::MobilityModel& mobility,
                               const phy::Channel& channel, std::size_t node_count,
                               double range_m, ContactFn on_contact)
    : sim_{sim},
      mobility_{mobility},
      channel_{channel},
      node_count_{node_count},
      range_m_{range_m},
      on_contact_{std::move(on_contact)},
      index_{mobility, node_count, range_m},
      prev_(node_count),
      timer_{sim, [this] { this->poll(); }, sim::EventCategory::dtn} {}

void ContactMonitor::start() { timer_.start(kContactPoll); }

bool ContactMonitor::in_contact(std::size_t a, std::size_t b, mobility::Vec2 pa,
                                sim::SimTime now) const {
  if (a == b) return false;
  if (!channel_.link_allowed(a, b)) return false;
  const mobility::Vec2 pb = mobility_.position_of(b, now);
  const double dx = pa.x - pb.x;
  const double dy = pa.y - pb.y;
  return dx * dx + dy * dy <= range_m_ * range_m_;
}

std::vector<std::size_t> ContactMonitor::neighbors_of(std::size_t node) {
  std::vector<std::size_t> out;
  const sim::SimTime now = sim_.now();
  if (channel_.is_node_down(node)) return out;
  index_.refresh_if_stale(now);
  const mobility::Vec2 pa = mobility_.position_of(node, now);
  candidates_.clear();
  index_.collect_candidates(pa, candidates_);
  for (const std::uint32_t b : candidates_) {
    if (in_contact(node, b, pa, now)) out.push_back(b);
  }
  return out;
}

void ContactMonitor::poll() {
  const sim::SimTime now = sim_.now();
  index_.refresh_if_stale(now);
  for (std::size_t a = 0; a < node_count_; ++a) {
    if (channel_.is_node_down(a)) {
      // A downed node keeps no neighborhood: everything it meets on the
      // way back up is a fresh contact.
      prev_[a].clear();
      continue;
    }
    const mobility::Vec2 pa = mobility_.position_of(a, now);
    candidates_.clear();
    index_.collect_candidates(pa, candidates_);
    current_.clear();
    for (const std::uint32_t b : candidates_) {
      if (in_contact(a, b, pa, now)) current_.push_back(b);
    }
    // Candidates arrive in ascending node order, so current_ is sorted;
    // diff against the previous (also sorted) poll.
    for (const std::uint32_t b : current_) {
      if (!std::binary_search(prev_[a].begin(), prev_[a].end(), b)) {
        on_contact_(a, b);
      }
    }
    prev_[a] = current_;
  }
}

}  // namespace ag::dtn
