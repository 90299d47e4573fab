// Half-duplex radio: tracks its own transmission, every reception in
// progress, and carrier state. Two receptions overlapping in time corrupt
// each other (unit-disk interference, no capture); a node transmitting is
// deaf to incoming frames.
//
// A Radio is the MAC's handle on one node of its channel's radio state
// engine (phy/phy_engine.h, phy::BatchedPhy in production): the state
// lives in the engine's per-node tables and every method forwards there.
#ifndef AG_PHY_RADIO_H
#define AG_PHY_RADIO_H

#include <cstddef>

#include "mac/frame.h"
#include "phy/channel.h"
#include "phy/phy_engine.h"
#include "sim/time.h"

namespace ag::phy {

class Radio {
 public:
  using Counters = RadioCounters;

  // Attaches itself to `channel`: construct radios in node-index order.
  Radio(Channel& channel, std::size_t node_index)
      : engine_{channel.engine()}, node_index_{node_index} {
    channel.attach(this);
  }

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  // The engine's per-node listener table is the only route from the
  // engine to the MAC above.
  void set_listener(RadioListener* listener) { engine_.set_listener(node_index_, listener); }
  [[nodiscard]] std::size_t node_index() const { return node_index_; }

  [[nodiscard]] bool transmitting() const { return engine_.transmitting(node_index_); }
  // True while transmitting or while any energy (even a corrupted frame)
  // is on the air at this node — physical carrier sense.
  [[nodiscard]] bool medium_busy() const { return engine_.medium_busy(node_index_); }
  // How long the medium has been continuously idle (zero when busy).
  [[nodiscard]] sim::Duration idle_for() const { return engine_.idle_for(node_index_); }

  // Starts transmitting; any reception in progress is destroyed (half
  // duplex). Precondition: not already transmitting.
  void transmit(const mac::Frame& frame) { engine_.transmit(node_index_, frame); }

  [[nodiscard]] const Counters& counters() const { return engine_.counters(node_index_); }

 private:
  PhyEngine& engine_;
  std::size_t node_index_;
};

}  // namespace ag::phy

#endif  // AG_PHY_RADIO_H
