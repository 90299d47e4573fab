// Contact detection for the custody tier: a periodic sweep over its own
// phy::SpatialIndex that diffs every node's in-range, link-up neighbor set
// against the previous poll and reports each newly appeared pair. Purely
// observational — it reads mobility/channel state and never touches the
// phy/MAC hot path; when custody is off the monitor is simply not built,
// so the simulation schedules zero extra events.
#ifndef AG_DTN_CONTACT_MONITOR_H
#define AG_DTN_CONTACT_MONITOR_H

#include <cstdint>
#include <functional>
#include <vector>

#include "dtn/params.h"
#include "mobility/mobility_model.h"
#include "phy/channel.h"
#include "phy/spatial_index.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace ag::dtn {

class ContactMonitor {
 public:
  // Fired once per newly in-contact ordered pair (both directions, so each
  // endpoint gets a chance to offer custody to the other).
  using ContactFn = std::function<void(std::size_t node, std::size_t peer)>;

  ContactMonitor(sim::Simulator& sim, const mobility::MobilityModel& mobility,
                 const phy::Channel& channel, std::size_t node_count,
                 double range_m, ContactFn on_contact);

  // Starts the periodic sweep every kContactPoll (no jitter: polls draw
  // no randomness, so an armed monitor never perturbs the run's rng
  // streams).
  void start();
  void stop() { timer_.stop(); }

  // Fresh neighborhood of `node` right now: in range, both radios up, not
  // separated by an active partition. Ascending node order. Used by the
  // fault hooks (reboot/rejoin/heal) to direct re-offers outside the poll.
  [[nodiscard]] std::vector<std::size_t> neighbors_of(std::size_t node);

 private:
  void poll();
  [[nodiscard]] bool in_contact(std::size_t a, std::size_t b,
                                mobility::Vec2 pa, sim::SimTime now) const;

  sim::Simulator& sim_;
  const mobility::MobilityModel& mobility_;
  const phy::Channel& channel_;
  std::size_t node_count_;
  double range_m_;
  ContactFn on_contact_;
  phy::SpatialIndex index_;
  std::vector<std::vector<std::uint32_t>> prev_;  // sorted neighbor lists
  std::vector<std::uint32_t> candidates_;         // reused per query
  std::vector<std::uint32_t> current_;            // reused per node
  sim::PeriodicTimer timer_;
};

}  // namespace ag::dtn

#endif  // AG_DTN_CONTACT_MONITOR_H
