// Adversarial-node axis as a decorator over any harness::MulticastRouter,
// built on harness::RouterDecorator like dtn::CustodyRouter and interposed
// at the same seams — the MAC listener and the router observer, plus the
// gossip adapter's peer selection — so every protocol (and the custody
// tier stacked above it) composes with it untouched, and the phy/MAC hot
// path never learns adversaries exist.
//
// Event flow on a decorated node (custody stacked over adversary):
//
//   MAC ──listener──▶ CustodyRouter ──▶ AdversaryRouter ──▶ protocol
//   protocol ──observer──▶ AdversaryRouter ──▶ CustodyRouter ──▶ agent
//
// Two personalities share the class:
//
//  - Adversarial (role.adversarial): the node misbehaves per
//    AdversaryMode. blackhole swallows every relayed data payload at the
//    MAC seam (the MAC already ACKed — the node keeps signaling, so
//    routes keep running through it); selective_forward swallows a
//    drop_fraction slice of distinct messages — the verdict is drawn
//    once per message on the node's dedicated "adversary_drop" rng
//    stream and remembered, so flood redundancy cannot vote a dropped
//    message back through; gossip_poison additionally answers
//    gossip requests at the observer seam with fabricated duplicates of
//    messages it does not hold, wasting the initiator's recovery round.
//
//  - Honest monitor (trust.enabled on a non-adversarial node): keeps
//    per-neighbor trust counters and, once a neighbor trips a floor,
//    isolates it — refuses its control traffic and gossip replies at
//    ingress (never its data: no mode here corrupts payloads), filters
//    it out of tree_neighbors() (gossip peer selection), and suppresses
//    member-cache updates naming it. Egress toward it is counted but
//    not blocked — destroying the last route is worse than risking the
//    adversary's drop slice. Two detectors feed the tables:
//
//      * Forwarding watchdog (opt-in via TrustParams::watchdog, and only
//        on relay-everything substrates, i.e. the flooding family where
//        the protocol contract is "every node rebroadcasts every
//        payload"): a promiscuous MacSniffer tap
//        counts distinct data packets — the first appearance of a packet
//        obliges every live neighbor to relay it once (expected += 1
//        each), and every overheard relay credits its transmitter
//        (observed += 1). A diligent relay's ratio approaches the
//        capture probability of its one broadcast; a selective
//        forwarder's is scaled down by its drop fraction. Whoever sits
//        under forward_ratio_floor once min_expected packets accrue is
//        isolated. Tree substrates skip the watchdog entirely (an
//        honest tree leaf legitimately forwards nothing). A node that
//        relays *nothing* — the pure blackhole on flooding — goes
//        RF-silent, ages out of every live set, and is undetectable by
//        overhearing; the watchdog's quarry is the partial dropper.
//        Overhearing measures honesty x link capture x MAC congestion,
//        an unidentifiable product, so the watchdog carries an inherent
//        false-positive rate and defaults off; the junk-reply detector
//        below is the always-on, near-misfire-free half of the trust
//        layer (unsolicited honest pushes can very rarely trip it; the
//        adversary bench's fraction=0 column prices both detectors).
//      * Junk-reply scoring (any gossip substrate): the monitor records
//        the msg ids its own pull walks request; a gossip reply is junk
//        only when it duplicates a message this node already holds AND
//        never asked for (honest responders race, so late copies of
//        requested messages stay legitimate). A responder that is
//        overwhelmingly junk is isolated — fabricated duplicates outside
//        the pull's lost list are exactly the poisoner's signature.
//
//    All counters decay exponentially on the sim clock, applied lazily
//    at observation time — the trust layer schedules no events and draws
//    no randomness, so enabling it on an all-honest run changes nothing
//    until the moment an isolation would fire.
//
// Determinism: role assignment is synthesized on the dedicated
// "adversary" rng stream (fault_plan.h); the only in-run randomness is
// selective_forward's per-node "adversary_drop" stream. With no roles and
// trust off, harness::Network skips the decorator entirely: the exact
// pre-adversary stack.
#ifndef AG_FAULTS_ADVERSARY_H
#define AG_FAULTS_ADVERSARY_H

#include <cstdint>
#include <memory>
#include <vector>

#include "faults/fault_plan.h"
#include "harness/router_decorator.h"
#include "mac/csma_mac.h"
#include "net/dense_map.h"
#include "net/node_table.h"
#include "net/packet.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace ag::faults {

class AdversaryRouter final : public harness::RouterDecorator,
                              public mac::MacSniffer {
 public:
  // This node's assignment on the adversary axis. Honest by default.
  struct Role {
    bool adversarial{false};
    AdversaryMode mode{AdversaryMode::blackhole};
    double drop_fraction{0.7};  // selective_forward only
  };

  // `expect_all_relays` permits the forwarding watchdog: true only for
  // the flooding family, where every node is contractually a relay; the
  // watchdog additionally requires trust.watchdog. The promiscuous
  // sniffer tap is registered only when the watchdog is armed on an
  // honest monitor — tree protocols, adversaries, and junk-detector-only
  // monitors pay nothing per frame.
  AdversaryRouter(sim::Simulator& sim, mac::CsmaMac& mac,
                  std::unique_ptr<harness::MulticastRouter> inner, Role role,
                  const TrustParams& trust, bool expect_all_relays, sim::Rng drop_rng);

  // Trust tables are volatile state: a power-cycle (RebootPolicy::wipe)
  // forgets who it distrusted, unlike the custody store.
  void reset() override;
  void add_totals(stats::NetworkTotals& totals) const override;

  // --- gossip::RoutingAdapter (isolation filtering, else passthrough) ---
  [[nodiscard]] std::vector<net::NodeId> tree_neighbors(
      net::GroupId group) const override;
  void unicast(net::NodeId dest, net::Payload payload) override;
  void send_to_neighbor(net::NodeId neighbor, net::Payload payload) override;

  // --- mac::MacListener (absorption / ingress isolation, else passthrough) ---
  void on_packet_received(const net::Packet& packet, net::NodeId from) override;

  // --- gossip::RouterObserver (poison / junk scoring, else passthrough) ---
  void on_multicast_data(const net::MulticastData& data, net::NodeId from) override;
  void on_member_learned(net::GroupId group, net::NodeId member,
                         std::uint8_t hops) override;
  void on_gossip_packet(const net::Packet& packet, net::NodeId from) override;

  // --- mac::MacSniffer (forwarding watchdog; armed monitors only) ---
  void on_frame_overheard(const mac::Frame& frame) override;
  void on_frame_transmitted(const mac::Frame& frame) override;

  // --- introspection (harness::Network::result(), tests) ---
  [[nodiscard]] const Role& role() const { return role_; }
  [[nodiscard]] bool monitoring() const { return monitor_; }
  [[nodiscard]] bool is_isolated(net::NodeId neighbor) const;
  [[nodiscard]] std::size_t isolated_count() const { return isolation_log_.size(); }

  struct Isolation {
    net::NodeId neighbor;
    sim::SimTime at;
  };
  // In firing order (the sim clock only moves forward).
  [[nodiscard]] const std::vector<Isolation>& isolation_log() const {
    return isolation_log_;
  }

  struct Counters {
    // Adversarial roles.
    std::uint64_t data_absorbed{0};     // relayed payloads swallowed at the MAC seam
    std::uint64_t poison_replies{0};    // fabricated duplicate replies sent
    std::uint64_t poison_swallowed{0};  // gossip requests consumed without a reply
    // Honest monitors.
    std::uint64_t ingress_dropped{0};   // control/replies refused from isolated
    std::uint64_t egress_blocked{0};    // sends toward isolated (counted, not cut)
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  // Per-neighbor trust state; all mass decays with kTrustDecayTauS.
  struct NeighborTrust {
    double expected{0.0};  // relays this neighbor owed (watchdog)
    double observed{0.0};  // relays actually overheard from it
    double junk{0.0};      // gossip replies that were already-held duplicates
    double useful{0.0};    // gossip replies that recovered something fresh
    sim::SimTime last_decay;
    sim::SimTime last_heard;
    bool isolated{false};
  };

  NeighborTrust& touch(net::NodeId neighbor, sim::SimTime now);
  void decay(NeighborTrust& t, sim::SimTime now) const;
  void isolate(net::NodeId neighbor, NeighborTrust& t, sim::SimTime now);
  // Watchdog bookkeeping for one overheard/own data frame: the first
  // appearance of a packet obliges every live neighbor to relay it once
  // (expected += 1 each); each overheard relay of an already-known packet
  // credits its transmitter (observed += 1). Fires the isolation floor.
  void watch_data_frame(const mac::Frame& frame, bool own, sim::SimTime now);
  // Records the msg ids this node's own pull walks ask for: a reply
  // answering a requested id is always legitimate, however late.
  void note_outgoing(const net::Payload& payload);
  void score_reply(const gossip::GossipReplyMsg& reply, sim::SimTime now);
  void poison(const gossip::GossipMsg& msg, net::NodeId from);
  // True when the adversarial role swallows this payload (data or a
  // gossip reply — everything the node was trusted to relay).
  [[nodiscard]] bool absorbs(const net::Packet& packet);

  sim::Simulator& sim_;
  Role role_;
  TrustParams trust_;
  const bool monitor_;   // honest node with the trust layer enabled
  const bool watchdog_;  // monitor on a relay-everything substrate
  sim::Rng drop_rng_;    // selective_forward draws; untouched otherwise

  net::NodeTable<NeighborTrust> trust_table_;
  net::DenseSet seen_;           // messages this node holds (junk-reply classifier)
  net::DenseSet requested_;      // msg ids this node's own pulls asked for
  net::DenseSet relay_seen_;     // packets the watchdog already credited
  net::DenseSet drop_decided_;   // selective_forward: msg ids already judged
  net::DenseSet drop_absorbed_;  // selective_forward: msg ids being dropped
  std::vector<Isolation> isolation_log_;
  std::vector<net::NodeId> live_scratch_;
  Counters counters_;
};

}  // namespace ag::faults

#endif  // AG_FAULTS_ADVERSARY_H
