#include "phy/channel.h"

#include <cassert>
#include <cmath>
#include <cstddef>

#include "mobility/vec2.h"
#include "phy/batched_phy.h"
#include "phy/radio.h"

namespace ag::phy {

Channel::Channel(sim::Simulator& sim, const mobility::MobilityModel& mobility,
                 PhyParams params)
    : sim_{sim},
      mobility_{mobility},
      params_{params},
      rx_pool_{std::make_shared<RxBufPool>()} {
  engine_ = params.engine != nullptr ? params.engine(sim_, *this)
                                     : std::make_unique<BatchedPhy>(sim_, *this);
}

Channel::~Channel() = default;

void Channel::attach(Radio* radio) {
  assert(radio != nullptr);
  assert(radio->node_index() == radios_.size() && "attach in node-index order");
  radios_.push_back(radio);
  engine_->attach();
}

sim::Duration Channel::airtime_of(const mac::Frame& frame) const {
  // Memoized per wire_bytes value: frame sizes repeat endlessly (ACKs,
  // hellos, the workload's payload), and this sat on the hottest path.
  const std::uint32_t bytes = frame.wire_bytes();
  if (bytes >= airtime_us_by_bytes_.size()) {
    airtime_us_by_bytes_.resize(bytes + 1, -1);
  }
  std::int64_t& us = airtime_us_by_bytes_[bytes];
  if (us < 0) {
    const double payload_us =
        static_cast<double>(bytes) * 8.0 * 1e6 / kBitrateBps;
    us = static_cast<std::int64_t>(kPhyOverheadUs + payload_us);
  }
  return sim::Duration::us(us);
}

BatchedPhy* Channel::batched_engine() { return dynamic_cast<BatchedPhy*>(engine_.get()); }

std::shared_ptr<Channel::RxBuf> Channel::acquire_rx_buf() {
  std::unique_ptr<RxBuf> buf;
  if (!rx_pool_->free_list.empty()) {
    buf = std::move(rx_pool_->free_list.back());
    rx_pool_->free_list.pop_back();
    buf->clear();
  } else {
    buf = std::make_unique<RxBuf>();
  }
  // The deleter returns the buffer to the pool and holds the pool alive,
  // so buffers captured in event lambdas stay safe past Channel teardown
  // (harness::Network destroys the channel before the simulator).
  std::shared_ptr<RxBufPool> pool = rx_pool_;
  return {buf.release(),
          [pool = std::move(pool)](RxBuf* b) { pool->free_list.emplace_back(b); }};
}

void Channel::set_node_down(std::size_t node, bool down) {
  if (node >= radios_.size()) return;
  if (down_.size() < radios_.size()) down_.resize(radios_.size(), 0);
  down_[node] = down ? 1 : 0;
  // Going down kills any frame currently being received; the first-bit
  // guard in transmit() only covers frames that had not yet arrived.
  if (down) engine_->abort_receptions(node);
}

void Channel::set_partition(std::vector<std::uint8_t> side_of_node) {
  assert(side_of_node.size() == radios_.size() && "one side per attached radio");
  partition_ = std::move(side_of_node);
}

void Channel::transmit(std::size_t sender, const mac::Frame& frame) {
  if (is_node_down(sender)) return;  // a downed radio radiates nothing
  ++transmissions_;
  const sim::SimTime now = sim_.now();
  const sim::Duration airtime = airtime_of(frame);
  const mobility::Vec2 from = mobility_.position_of(sender, now);
  const double range_sq =
      params_.transmission_range_m * params_.transmission_range_m;

  pending_.clear();
  auto consider = [&](std::size_t i) {
    if (i == sender) return;
    const double d_sq = mobility::distance_sq(from, mobility_.position_of(i, now));
    if (d_sq > range_sq) return;
    if (!down_.empty() && down_[i] != 0) {
      ++suppressed_down_;
      return;
    }
    if (!partition_.empty() && partition_[i] != partition_[sender]) {
      ++suppressed_partition_;
      return;
    }
    if (drop_hook_ && drop_hook_(sender, i)) return;
    const double d = std::sqrt(d_sq);  // true distance: propagation delay
    const auto prop_us =
        static_cast<std::int64_t>(d / kPropagationMps * 1e6) + 1;
    ++deliveries_;
    pending_.emplace_back(prop_us, static_cast<std::uint32_t>(i));
  };

  if (params_.use_spatial_index) {
    // (Re)build on first use or when radios were attached since — the
    // index covers exactly the receivers the scan would visit.
    if (index_ == nullptr || index_->node_count() != radios_.size()) {
      // Tight margin (0.1 x range instead of the 0.25 default): smaller
      // cells mean fewer bucketed neighbors scanned and a sharper
      // range + margin prefilter per transmit, while the extra rebuilds
      // (epoch = margin / max_speed) stay a rounding error next to the
      // per-transmit scan. Candidate sets remain supersets of the true
      // receivers at any margin, so results are bit-identical.
      index_ = std::make_unique<SpatialIndex>(mobility_, radios_.size(),
                                              params_.transmission_range_m,
                                              /*margin_fraction=*/0.1);
    }
    index_->refresh_if_stale(now);
    // Epoch-cached candidate set: the cell scan + sort amortizes over
    // every transmission this sender makes before the next rebuild; the
    // exact range check below stays per-transmission.
    for (const std::uint32_t i : index_->candidates_for(sender, from)) consider(i);
  } else {
    for (std::size_t i = 0; i < radios_.size(); ++i) consider(i);
  }
  if (pending_.empty()) return;

  // One immutable frame shared by every receiver (zero-copy delivery),
  // and one scheduled event per distinct propagation delay, delivering to
  // its receivers in ascending node order. Delivery times and ordering
  // are identical to scheduling one event per receiver (equal-time events
  // fire FIFO, and per-receiver events were scheduled in ascending node
  // order); at unit-disk ranges the quantized delay is the same for every
  // receiver, so this is almost always a single event per transmission.
  //
  // Grouping is a single pass over pending_ (ascending node order):
  // each entry appends to its delay's pooled receiver buffer, distinct
  // delays kept in first-occurrence order — the same groups in the same
  // schedule order as scanning pending_ once per distinct delay, without
  // the quadratic rescan or a fresh heap allocation per event. The inner
  // scan is over *distinct delays* (1 at unit-disk ranges), not entries.
  const auto shared = std::make_shared<const mac::Frame>(frame);
  groups_.clear();
  for (const auto& [p, i] : pending_) {
    std::shared_ptr<RxBuf>* buf = nullptr;
    for (auto& [delay, b] : groups_) {
      if (delay == p) {
        buf = &b;
        break;
      }
    }
    if (buf == nullptr) {
      groups_.emplace_back(p, acquire_rx_buf());
      buf = &groups_.back().second;
    }
    (*buf)->push_back(i);
  }
  for (auto& [prop_us, rx] : groups_) {
    const auto prop = sim::Duration::us(prop_us);
    const sim::SimTime end = now + prop + airtime;
    sim_.schedule_after(
        prop,
        [this, shared, end, rx = std::move(rx)] { engine_->deliver_group(shared, end, *rx); },
        sim::EventCategory::phy_delivery);
  }
  groups_.clear();  // drop the moved-from shells, keep the delay scratch
}

}  // namespace ag::phy
