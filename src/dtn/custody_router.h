// DTN custody tier as a decorator over any harness::MulticastRouter. The
// wrapped protocol keeps its whole machinery; harness::RouterDecorator
// forwards every call, and this class interposes on two of its seams and
// adds one of its own:
//
//  - MAC listener: everything passes through except CustodyHandoffMsg —
//    the custody wire message no protocol needs to understand.
//  - Router observer: every unique delivery is also taken into custody
//    before flowing up unchanged.
//  - offer_to(): the contact-driven path. On a contact (neighbor
//    appearance, reboot/rejoin, partition heal) the store's oldest batch
//    is handed to the peer as one-hop MAC unicasts; the receiver delivers
//    fresh payloads up (the gossip agent and the sink both deduplicate)
//    and takes custody itself, so payloads diffuse across disruptions.
//
// The store survives reset() — custody is the promise that a message
// outlives the disruption, so it is modeled as stable storage exactly
// like the data-plane sequence counters (see MulticastRouter::reset()).
#ifndef AG_DTN_CUSTODY_ROUTER_H
#define AG_DTN_CUSTODY_ROUTER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "dtn/custody_store.h"
#include "dtn/params.h"
#include "harness/router_decorator.h"
#include "mac/csma_mac.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace ag::dtn {

class CustodyRouter final : public harness::RouterDecorator {
 public:
  CustodyRouter(sim::Simulator& sim, mac::CsmaMac& mac,
                std::unique_ptr<harness::MulticastRouter> inner,
                const CustodyParams& params, bool gateway);

  // --- harness::MulticastRouter (the origin seeds its own custody) ---
  std::uint32_t send_multicast(net::GroupId group,
                               std::uint16_t payload_bytes) override;
  void add_totals(stats::NetworkTotals& totals) const override;

  // --- mac::MacListener (custody interception, else passthrough) ---
  void on_packet_received(const net::Packet& packet, net::NodeId from) override;
  void on_unicast_failed(const net::Packet& packet, net::NodeId next_hop) override;

  // --- gossip::RouterObserver (custody tap, else passthrough) ---
  void on_multicast_data(const net::MulticastData& data, net::NodeId from) override;

  // --- custody (contact hooks and introspection) ---
  // Hands the store's oldest offer-batch to `peer` as one-hop unicasts.
  void offer_to(net::NodeId peer);

  [[nodiscard]] CustodyStore& store() { return store_; }
  [[nodiscard]] const CustodyStore& store() const { return store_; }
  [[nodiscard]] bool gateway() const { return gateway_; }

  struct Counters {
    std::uint64_t offers_sent{0};       // handoff packets put on the air
    std::uint64_t offers_failed{0};     // handoffs whose MAC retries ran out
    std::uint64_t accepted_fresh{0};    // received handoffs new to this node
    std::uint64_t accepted_duplicate{0};
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  sim::Simulator& sim_;
  mac::CsmaMac& mac_;
  bool gateway_;
  CustodyStore store_;
  net::DenseSet seen_;  // classifies received handoffs fresh/duplicate
  std::vector<net::MulticastData> offer_scratch_;
  Counters counters_;
};

}  // namespace ag::dtn

#endif  // AG_DTN_CUSTODY_ROUTER_H
