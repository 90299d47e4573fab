// AODV unicast routing (IETF draft-05 subset): on-demand route discovery
// with RREQ/RREP, sequence-number freshness, hello-based neighbor
// detection, RERR propagation on link breaks, and packet buffering during
// discovery. Virtual hooks let MaodvRouter extend RREQ/RREP processing for
// multicast joins and handle multicast-only message types. Also implements
// the unicast half of gossip::RoutingAdapter and the observer wiring, which
// MAODV and ODMRP share; each adds its own membership and data plane.
#ifndef AG_AODV_AODV_ROUTER_H
#define AG_AODV_AODV_ROUTER_H

#include <cstdint>
#include <deque>
#include <memory>

#include "aodv/messages.h"
#include "aodv/neighbor_table.h"
#include "aodv/params.h"
#include "aodv/route_table.h"
#include "harness/multicast_router.h"
#include "mac/csma_mac.h"
#include "net/dense_map.h"
#include "net/node_table.h"
#include "net/packet.h"
#include "sim/rng.h"
#include "sim/timer.h"

namespace ag::aodv {

class AodvRouter : public mac::MacListener, public harness::MulticastRouter {
 public:
  AodvRouter(sim::Simulator& sim, mac::CsmaMac& mac, net::NodeId self, sim::Rng rng);
  ~AodvRouter() override = default;

  // Begins hello beaconing and neighbor sweeping. Call once after wiring.
  void start() override;

  // Wires the gossip layer (or any observer). Gossip-layer unicast
  // payloads delivered to this node go to the observer's on_gossip_packet.
  void set_observer(gossip::RouterObserver* observer) override { observer_ = observer; }

  [[nodiscard]] RouteTable& route_table() { return routes_; }
  [[nodiscard]] NeighborTable& neighbors() { return neighbors_; }

  // Sends a routed unicast packet (pkt.dst is the final destination);
  // triggers route discovery and buffers when no route is known.
  void send_unicast(net::Packet pkt);

  // --- gossip::RoutingAdapter ---
  [[nodiscard]] net::NodeId self() const override { return self_; }
  // Routed unicast of a payload with the network-wide TTL.
  void unicast(net::NodeId dest, net::Payload payload) override;
  // Sends a payload directly to a known neighbor, bypassing the route
  // table (hop-by-hop protocol traffic: gossip walks, nearest-member).
  void send_to_neighbor(net::NodeId neighbor, net::Payload payload) override;
  // Installs a route learned out-of-band (e.g. the reverse path of a
  // gossip walk), so replies do not need a fresh discovery.
  void route_hint(net::NodeId dest, net::NodeId via_neighbor, std::uint8_t hops) override;
  [[nodiscard]] std::uint8_t route_hops(net::NodeId dest) const override;

  struct Counters {
    std::uint64_t rreq_originated{0};
    std::uint64_t rerr_sent{0};
    std::uint64_t no_route_drops{0};
    std::uint64_t discovery_failures{0};
    std::uint64_t link_breaks_mac{0};    // unicast retry exhaustion
    std::uint64_t link_breaks_hello{0};  // hello timeout
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // MacListener:
  void on_packet_received(const net::Packet& packet, net::NodeId from) override;
  void on_unicast_failed(const net::Packet& packet, net::NodeId next_hop) override;

 protected:
  // Crash support shared with the derived routers: stops hello/sweep
  // beaconing and forgets routes, neighbors, RREQ dedup state and pending
  // discoveries. own_seq_ and rreq_id_ survive (stable storage) so peers'
  // freshness rules keep working across the reboot.
  void reset_unicast_state();

  // --- extension points for MAODV ---
  // Returns true if the join RREQ was answered (suppresses rebroadcast).
  virtual bool try_answer_join_rreq(const RreqMsg&, net::NodeId /*from*/) { return false; }
  virtual void handle_join_rrep(const RrepMsg&, net::NodeId /*from*/) {}
  // MACT / GRPH / MulticastData and anything else the base does not know.
  virtual void handle_multicast_packet(const net::Packet&, net::NodeId /*from*/) {}
  virtual void on_neighbor_lost(net::NodeId /*neighbor*/) {}

  // --- services shared with the derived router ---
  void broadcast_packet(net::Payload payload, std::uint8_t ttl);
  // Re-broadcast with a small uniform delay — the draft's BROADCAST_JITTER,
  // which decorrelates forwarding chains (RREQ floods, GRPH, tree data).
  void broadcast_jittered(net::Payload payload, std::uint8_t ttl,
                          sim::Duration max_jitter = sim::Duration::ms(10));
  void unicast_to_neighbor(net::NodeId neighbor, net::Packet pkt);
  net::SeqNo bump_own_seq() { return own_seq_ = own_seq_.next(); }
  std::uint32_t next_rreq_id() { return rreq_id_++; }
  // Starts (or joins) a discovery for dest. MAODV reuses this for nothing;
  // unicast send paths call it internally.
  void discover(net::NodeId dest);
  // Creates/updates the reverse route used while processing any RREQ.
  void learn_reverse_routes(const RreqMsg& rreq, net::NodeId from);
  // RREQ flood dedup (shared so join RREQs dedup identically).
  bool rreq_seen_before(net::NodeId origin, std::uint32_t rreq_id);
  void note_neighbor_alive(net::NodeId neighbor);
  void send_rrep(net::NodeId to_neighbor, const RrepMsg& rrep);
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const sim::Simulator& simulator() const { return sim_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }
  [[nodiscard]] gossip::RouterObserver* observer() const { return observer_; }

 private:
  struct PendingDiscovery {
    std::uint32_t attempts{0};
    std::deque<net::Packet> buffered;
    std::unique_ptr<sim::Timer> timer;
  };

  void send_hello();
  void sweep_neighbors();
  void process_rreq(const net::Packet& pkt, const RreqMsg& rreq, net::NodeId from);
  bool try_answer_unicast_rreq(const RreqMsg& rreq, net::NodeId from);
  void process_rrep(const net::Packet& pkt, const RrepMsg& rrep, net::NodeId from);
  void process_rerr(const RerrMsg& rerr, net::NodeId from);
  void forward_unicast(net::Packet pkt, net::NodeId from);
  void handle_link_failure(net::NodeId neighbor);
  void discovery_timeout(net::NodeId dest);
  void flush_buffered(net::NodeId dest);
  void report_broken_routes(const std::vector<net::NodeId>& dests);

  sim::Simulator& sim_;
  mac::CsmaMac& mac_;
  net::NodeId self_;
  sim::Rng rng_;
  gossip::RouterObserver* observer_{nullptr};

  RouteTable routes_;
  NeighborTable neighbors_;
  net::SeqNo own_seq_{net::SeqNo{1}};
  std::uint32_t rreq_id_{1};
  net::DenseMap<sim::SimTime> rreq_cache_;  // (origin,id) -> expiry
  net::NodeTable<PendingDiscovery> discoveries_;
  sim::PeriodicTimer hello_timer_;
  sim::PeriodicTimer sweep_timer_;
  Counters counters_;
};

}  // namespace ag::aodv

#endif  // AG_AODV_AODV_ROUTER_H
