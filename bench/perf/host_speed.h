// How fast the host runs simulator-like code at the moment, measured with a
// fixed reference program of the benchmark's own.
//
// The benchmark shares a machine with other tenants. Their load slows
// everything it runs, the same code by up to 1.9x, in phases that last
// minutes, so no statistic over one measurement's own times can remove it.
// The reference program is shaped like the simulator: a binary heap of
// timed events, each handing a shared, pool-allocated packet to one of
// 4096 nodes through a virtual call, and relaying it onwards. A burst of it
// runs between the timed scenario runs. Its code and inputs never change,
// so its time follows the host's speed alone, and a run's time divided by
// the bursts' beside it cancels the slowdown they share.
#ifndef AGBENCH_HOST_SPEED_H
#define AGBENCH_HOST_SPEED_H

namespace agbench {

// Host seconds one reference burst takes now.
[[nodiscard]] double reference_burst_s();

// A reference burst's time on the baseline machine (see README.md) when
// its other tenants were quiet. A host time multiplied by this over the
// bursts' time reads as seconds on that machine.
inline constexpr double kReferenceBurstBaselineS = 0.0050;

}  // namespace agbench

#endif  // AGBENCH_HOST_SPEED_H
