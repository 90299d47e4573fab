// The radio state engine behind every phy::Radio: a Radio forwards each
// call here with its node index, and the Channel hands over each frame's
// receiver group. Production runs phy::BatchedPhy; a test can install
// another engine through PhyParams::engine.
#ifndef AG_PHY_PHY_ENGINE_H
#define AG_PHY_PHY_ENGINE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mac/frame.h"
#include "sim/time.h"

namespace ag::phy {

// Implemented by the MAC layer.
class RadioListener {
 public:
  virtual ~RadioListener() = default;
  virtual void on_frame_received(const mac::Frame& frame) = 0;
  virtual void on_medium_busy() = 0;
  virtual void on_medium_idle() = 0;
  virtual void on_transmit_complete() = 0;
};

// Per-node counters for the stats module.
struct RadioCounters {
  std::uint64_t frames_sent{0};
  std::uint64_t frames_received{0};
  std::uint64_t frames_corrupted{0};  // lost to collision
  std::uint64_t frames_missed_while_tx{0};
};

class PhyEngine {
 public:
  virtual ~PhyEngine() = default;

  // Adds the next node; Channel::attach calls it in node-index order.
  // Every other call takes an attached node.
  virtual void attach() = 0;
  virtual void set_listener(std::size_t node, RadioListener* listener) = 0;

  // --- Radio facade (see phy/radio.h for the contract) ---
  [[nodiscard]] virtual bool transmitting(std::size_t node) const = 0;
  [[nodiscard]] virtual bool medium_busy(std::size_t node) const = 0;
  [[nodiscard]] virtual sim::Duration idle_for(std::size_t node) const = 0;
  virtual void transmit(std::size_t node, const mac::Frame& frame) = 0;
  // Crash support (Channel::set_node_down): destroys every reception in
  // progress. Not counted as a collision — nothing interfered.
  virtual void abort_receptions(std::size_t node) = 0;
  [[nodiscard]] virtual const RadioCounters& counters(std::size_t node) const = 0;

  // --- Channel delivery path ---
  // One frame's first bit reaches `rx` (ascending node order); its last
  // bit arrives at `end`. Receivers that went down since the transmit
  // must be skipped.
  virtual void deliver_group(const std::shared_ptr<const mac::Frame>& frame,
                             sim::SimTime end, const std::vector<std::uint32_t>& rx) = 0;

  // --- elision accounting (see stats::NetworkTotals::phy_events_elided) ---
  [[nodiscard]] virtual std::uint64_t rx_elided() const = 0;
  [[nodiscard]] virtual std::uint64_t rx_coalesced() const = 0;
};

}  // namespace ag::phy

#endif  // AG_PHY_PHY_ENGINE_H
