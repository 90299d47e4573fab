// Uniform-grid spatial index over mobility positions, the receiver-lookup
// accelerator for phy::Channel::transmit(). Replaces the brute-force
// O(n) scan over every attached radio with an O(degree) candidate lookup
// while keeping delivery decisions bit-identical:
//
//  - Cells are sized transmission_range + 3 * margin, where the margin
//    is a conservative max_speed * epoch bound on how far closed-form
//    motion can drift between bucket refreshes. Any receiver within true
//    range of the sender *now* was, at bucket time, within range +
//    margin of the sender's current position, so it sits in the 3x3
//    cell neighborhood around the sender's current cell. The extra 2 *
//    margin of cell width serves the per-sender cached query
//    (candidates_for), whose anchor position may itself be up to 2 *
//    margin stale — see below.
//  - Buckets refresh lazily: the first query past the epoch horizon (or
//    after a MobilityModel::position_generation() bump, e.g. a test
//    teleporting a node) rebuilds in O(n).
//  - Candidates are returned in ascending node index — the same order the
//    brute-force scan visits them — and the caller still applies the
//    exact range check, so schedules and results match the scan bit for
//    bit.
//  - Buckets carry each node's position as of the rebuild, so the lookup
//    prefilters the 3x3 neighborhood down to nodes within range + margin
//    of the sender before sorting: a node farther than that from the
//    sender *now* is provably out of true range (it can have drifted at
//    most margin since the rebuild), so dropping it can never change a
//    delivery decision — it only spares the caller the exact check.
//  - Positions outside the model's declared bounds clamp into the border
//    cells. Clamping is monotone and 1-Lipschitz per axis, so two
//    positions within one cell length of each other stay within one cell
//    of each other after clamping: correctness degrades never, only
//    candidate-set tightness.
//  - Models with wraps_x() (highway wrap-around) use modular column
//    adjacency, so a car that wrapped between refresh and query is still
//    found in the border column on the other side.
#ifndef AG_PHY_SPATIAL_INDEX_H
#define AG_PHY_SPATIAL_INDEX_H

#include <cstdint>
#include <vector>

#include "mobility/mobility_model.h"
#include "sim/time.h"

namespace ag::phy {

class SpatialIndex {
 public:
  // Indexes nodes [0, node_count) of `mobility` (the channel's attached
  // radios; the model may know about more nodes). `margin_fraction` sets
  // the refresh trade-off: margin = margin_fraction * range, and the
  // epoch between rebuilds is margin / max_speed.
  SpatialIndex(const mobility::MobilityModel& mobility, std::size_t node_count,
               double range_m, double margin_fraction = 0.25);

  // Makes the buckets valid for queries at `now`: rebuilds when the epoch
  // expired or the model's position generation changed.
  void refresh_if_stale(sim::SimTime now);

  // Appends every node whose reception could be in range of a sender at
  // `from` (candidates; the caller applies the exact range check), in
  // ascending node index. The set is prefiltered to nodes within
  // range + margin of `from` at bucket time, which is still a superset of
  // every true receiver. Only valid after refresh_if_stale(now) with the
  // `now` the position was sampled at.
  void collect_candidates(mobility::Vec2 from, std::vector<std::uint32_t>& out) const;

  // Per-sender cached variant of collect_candidates: the gathered set is
  // memoized for the whole bucket epoch, so a sender transmitting many
  // times between rebuilds pays the cell scan + sort once. The prefilter
  // reach widens to range + 3 * margin because the anchor `from` is the
  // sender's position at cache-fill time: by the epoch drift bound the
  // sender has moved at most 2 * margin since (both positions lie within
  // margin of its rebuild-time position) and each receiver at most
  // margin, so every true receiver of ANY transmission this epoch stays
  // inside the cached set — and cells are sized >= range + 3 * margin,
  // so the 3x3 neighborhood still covers the widened reach. The caller's
  // exact range check per transmission is unchanged, so delivery
  // decisions are bit-identical to the uncached query.
  const std::vector<std::uint32_t>& candidates_for(std::size_t sender,
                                                   mobility::Vec2 from);

  [[nodiscard]] std::size_t node_count() const { return node_count_; }
  [[nodiscard]] std::size_t cols() const { return nx_; }
  [[nodiscard]] std::size_t rows() const { return ny_; }
  [[nodiscard]] double cell_size_m() const { return cell_m_; }
  [[nodiscard]] double margin_m() const { return margin_m_; }
  // End of the current epoch: queries at or before this time are covered
  // by the margin (SimTime::max() for immobile models).
  [[nodiscard]] sim::SimTime valid_until() const { return valid_until_; }
  [[nodiscard]] std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  void rebuild(sim::SimTime now);
  // Shared gather core: appends every bucketed node within `reach` of
  // `from` (bucket-time positions), ascending node index.
  void gather(mobility::Vec2 from, double reach, std::vector<std::uint32_t>& out) const;
  [[nodiscard]] std::size_t col_of(double x) const;
  [[nodiscard]] std::size_t row_of(double y) const;

  // One bucket entry per node: the position sampled at the last rebuild
  // rides along with the id, so the candidate prefilter runs on
  // contiguous data instead of a virtual position_of() per candidate.
  struct Entry {
    double x;
    double y;
    std::uint32_t id;
  };

  const mobility::MobilityModel& mobility_;
  std::size_t node_count_;
  double range_m_;
  double margin_m_;
  double cell_m_;
  // Column width. Equals cell_m_ except for wrap-x models, where columns
  // must divide the circumference exactly: a seam column narrower than
  // the cell would break the "±1 column mod nx" adjacency for circle
  // distances that span it, dropping true receivers across the wrap.
  double cell_x_m_;
  double max_speed_mps_;
  bool wrap_x_;
  mobility::Bounds bounds_;
  std::size_t nx_{1};
  std::size_t ny_{1};
  std::vector<std::vector<Entry>> cells_;  // nx_ * ny_, row-major
  // candidates_for memoization: one candidate list per sender, stamped
  // with the rebuild counter it was gathered under.
  std::vector<std::vector<std::uint32_t>> cache_;
  std::vector<std::uint64_t> cache_stamp_;
  sim::SimTime valid_until_{sim::SimTime::zero()};
  std::uint64_t seen_generation_{0};
  bool built_{false};
  std::uint64_t rebuilds_{0};
};

}  // namespace ag::phy

#endif  // AG_PHY_SPATIAL_INDEX_H
