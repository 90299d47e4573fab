#include "mac/countdown.h"

#include <algorithm>

namespace ag::mac {

bool FusedCountdown::resume(sim::Duration idle) {
  // The DIFS remainder and every pending backoff slot fuse into one
  // deadline. A busy transition before it fires pauses by crediting whole
  // elapsed slots; the deadline firing means the medium stayed idle
  // throughout, so the whole countdown completed.
  const bool difs_served = idle >= kDifs;
  if (difs_served && slots_ == 0) return true;
  const sim::Duration difs_remaining = difs_served ? sim::Duration::zero() : kDifs - idle;
  anchor_ = sim_.now() + difs_remaining;
  fused_difs_remaining_ = slots_ > 0 ? difs_remaining : sim::Duration::zero();
  timer_.restart(difs_remaining + kSlot * slots_,
                 slots_ > 0 ? sim::EventCategory::mac_slot : sim::EventCategory::mac_difs);
  return false;
}

void FusedCountdown::pause() {
  if (timer_.pending() && slots_ > 0) {
    // Credit every whole slot completed since DIFS deference finished and
    // forfeit the partial slot in progress — exactly the decrements a
    // per-slot tick chain would have applied by now. (A tick firing in the
    // same microsecond as the busy transition fires first — it was
    // scheduled at least a slot earlier, FIFO order — so an exact slot
    // boundary counts as completed; integer floor gives the same answer.)
    const sim::Duration since_anchor = sim_.now() - anchor_;
    if (!fused_difs_remaining_.is_zero() &&
        (since_anchor > sim::Duration::zero() ||
         (since_anchor == sim::Duration::zero() &&
          fused_difs_remaining_ > max_propagation_))) {
      // The countdown made it past the anchor, so a per-slot countdown's
      // separate difs event fired there: strictly past is unambiguous,
      // and at the exact anchor the difs event was scheduled a full DIFS
      // remainder earlier while the pausing arrival was scheduled at most
      // one propagation delay earlier — FIFO order lets the difs event
      // win whenever the remainder exceeds that bound. Shorter remainders
      // could tie with the arrival's schedule instant, so those
      // coincidences are not counted.
      ++counters_.difs_events_elided;
    }
    if (since_anchor > sim::Duration::zero()) {
      const std::int64_t whole = since_anchor.count_us() / kSlot.count_us();
      const auto credit =
          static_cast<std::uint32_t>(std::min<std::int64_t>(whole, slots_));
      slots_ -= credit;
      counters_.backoff_slots_credited += credit;
    }
  }
  timer_.cancel();
}

void FusedCountdown::fire() {
  // The deadline survived to its expiry: no busy transition paused us (a
  // pause cancels the timer), so DIFS and every slot completed.
  if (!fused_difs_remaining_.is_zero()) ++counters_.difs_events_elided;
  counters_.backoff_slots_credited += slots_;
  slots_ = 0;
  done_();
}

}  // namespace ag::mac
