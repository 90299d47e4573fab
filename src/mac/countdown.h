// CSMA/CA contention countdown: DIFS deference, then the backoff slots the
// MAC drew, frozen while the medium is busy. CsmaMac keeps the RNG draws
// (set_slots) and watches the medium (resume/pause); the countdown owns
// the timer and calls `done` when it completes. Production runs
// FusedCountdown; a test can install another through MacParams::countdown.
#ifndef AG_MAC_COUNTDOWN_H
#define AG_MAC_COUNTDOWN_H

#include <cstdint>
#include <functional>

#include "mac/mac_params.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace ag::mac {

class Countdown {
 public:
  struct Counters {
    std::uint64_t backoff_slots_credited{0};  // whole slots consumed
    // DIFS waits a fused deadline served together with backoff slots,
    // where a per-slot countdown runs its own mac_difs event.
    std::uint64_t difs_events_elided{0};
  };

  virtual ~Countdown() = default;
  Countdown(const Countdown&) = delete;
  Countdown& operator=(const Countdown&) = delete;

  // Arms a fresh countdown of `slots` backoff slots, DIFS not yet served.
  void set_slots(std::uint32_t slots) { slots_ = slots; }
  // Power cycle: drops the countdown, crediting nothing.
  void reset() {
    timer_.cancel();
    slots_ = 0;
  }
  // The medium is idle and has been for `idle`. Returns true when the
  // countdown is already complete; otherwise `done` is called when it is.
  virtual bool resume(sim::Duration idle) = 0;
  // The medium went busy: freeze the countdown.
  virtual void pause() = 0;

  [[nodiscard]] const Counters& counters() const { return counters_; }

 protected:
  Countdown(sim::Simulator& sim, std::function<void()> done)
      : sim_{sim},
        done_{std::move(done)},
        // Nominal category only: every restart passes its own.
        timer_{sim, [this] { fire(); }, sim::EventCategory::mac_slot} {}

  // The timer armed by resume() expired.
  virtual void fire() = 0;

  sim::Simulator& sim_;
  std::function<void()> done_;
  sim::Timer timer_;
  std::uint32_t slots_{0};
  Counters counters_;
};

// Event-elided countdown: the DIFS remainder and every remaining slot fuse
// into ONE deadline, and a pause credits the whole slots elapsed since DIFS
// completed in O(1), forfeiting the partial slot — exactly what a per-slot
// tick machine does, so whole runs are bit-identical to one (see
// ARCHITECTURE.md "MAC contention").
class FusedCountdown final : public Countdown {
 public:
  // `max_propagation` bounds any in-range sender's quantized propagation
  // delay; the exact-anchor tie rule in pause() needs it.
  FusedCountdown(sim::Simulator& sim, sim::Duration max_propagation,
                 std::function<void()> done)
      : Countdown{sim, std::move(done)}, max_propagation_{max_propagation} {}

  bool resume(sim::Duration idle) override;
  void pause() override;

 private:
  void fire() override;

  sim::Duration max_propagation_;
  // While the timer is pending: when DIFS deference completes (slots
  // count from here), and the DIFS remainder the deadline covers besides
  // slots (zero when DIFS was already served).
  sim::SimTime anchor_;
  sim::Duration fused_difs_remaining_;
};

}  // namespace ag::mac

#endif  // AG_MAC_COUNTDOWN_H
