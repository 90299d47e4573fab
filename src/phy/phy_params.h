// Physical-layer parameters (paper section 5.1: 2 Mbps radio, unit-disk
// transmission range varied per experiment).
#ifndef AG_PHY_PHY_PARAMS_H
#define AG_PHY_PHY_PARAMS_H

#include <memory>

namespace ag::sim {
class Simulator;
}

namespace ag::phy {

class Channel;
class PhyEngine;

inline constexpr double kBitrateBps = 2e6;
// PLCP preamble + header at 1 Mbps, 802.11 DSSS long preamble.
inline constexpr double kPhyOverheadUs = 192.0;
inline constexpr double kPropagationMps = 3e8;

struct PhyParams {
  // Builds the radio state engine a Channel runs (see phy/phy_engine.h).
  using EngineFactory = std::unique_ptr<PhyEngine> (*)(sim::Simulator& sim, Channel& channel);

  double transmission_range_m{75.0};
  // Receiver lookup via the grid spatial index (see phy/spatial_index.h).
  // Off falls back to the brute-force O(n) scan — delivery decisions are
  // bit-identical either way; the spatial index's tests use the scan as
  // their oracle.
  bool use_spatial_index{true};
  // Engine seam, set only by tests: nullptr runs phy::BatchedPhy; a test
  // installs an oracle engine here (tests/reference/).
  EngineFactory engine{nullptr};
};

}  // namespace ag::phy

#endif  // AG_PHY_PHY_PARAMS_H
