// Assembles a full network from a ScenarioConfig: mobility, channel, and
// one protocol stack (radio / MAC / router-plugin / gossip agent / app)
// per node; runs the scenario and extracts the RunResult. The router is
// built through the ProtocolRegistry, so Network never names a concrete
// protocol type.
#ifndef AG_HARNESS_NETWORK_H
#define AG_HARNESS_NETWORK_H

#include <memory>
#include <vector>

#include "app/multicast_sink.h"
#include "app/multicast_source.h"
#include "dtn/contact_monitor.h"
#include "dtn/custody_router.h"
#include "faults/adversary.h"
#include "faults/fault_injector.h"
#include "gossip/gossip_agent.h"
#include "session/session_manager.h"
#include "harness/multicast_router.h"
#include "harness/scenario.h"
#include "mac/csma_mac.h"
#include "net/data_plane.h"
#include "phy/channel.h"
#include "phy/radio.h"
#include "sim/simulator.h"
#include "stats/run_result.h"

namespace ag::harness {

// The single multicast group used by the paper's experiments.
inline constexpr net::GroupId kGroup{1};

class Network {
 public:
  explicit Network(const ScenarioConfig& config);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Runs the configured scenario to completion (joins, traffic, drain).
  void run();
  // Runs only until `until` (for tests that inspect intermediate state).
  void run_until(sim::SimTime until) { sim_.run_until(until); }

  [[nodiscard]] stats::RunResult result() const;

  // --- accessors for tests and examples ---
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] phy::Channel& channel() { return *channel_; }
  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  [[nodiscard]] std::size_t node_count() const { return stacks_.size(); }
  [[nodiscard]] MulticastRouter& router(std::size_t i) { return *stacks_[i]->router; }
  // Typed view of node i's router; nullptr when the configured protocol
  // is implemented by a different router type.
  template <typename Router>
  [[nodiscard]] Router* router_as(std::size_t i) {
    return dynamic_cast<Router*>(stacks_[i]->router.get());
  }
  [[nodiscard]] gossip::GossipAgent& agent(std::size_t i) { return *stacks_[i]->agent; }
  [[nodiscard]] app::MulticastSink* sink(std::size_t i) { return stacks_[i]->sink.get(); }
  [[nodiscard]] mac::CsmaMac& mac(std::size_t i) { return *stacks_[i]->mac; }
  [[nodiscard]] bool is_member(std::size_t i) const { return i < config_.member_count(); }
  [[nodiscard]] std::size_t source_index() const { return 0; }
  [[nodiscard]] std::uint32_t packets_sent() const {
    return source_ == nullptr ? 0 : source_->sent();
  }
  // The fault injector driving this run, or nullptr when the effective
  // plan is empty (the common, zero-cost case).
  [[nodiscard]] faults::FaultInjector* fault_injector() { return injector_.get(); }
  // Node i's custody decorator, or nullptr when custody is off.
  [[nodiscard]] dtn::CustodyRouter* custody(std::size_t i) {
    return custody_.empty() ? nullptr : custody_[i];
  }
  [[nodiscard]] bool custody_enabled() const { return !custody_.empty(); }
  [[nodiscard]] bool is_gateway(std::size_t i) const {
    return i < gateway_.size() && gateway_[i] != 0;
  }
  // Node i's user-session multiplexer, or nullptr (sessions off/non-member).
  [[nodiscard]] session::SessionManager* sessions(std::size_t i) {
    return stacks_[i]->sessions.get();
  }
  // Node i's adversary/trust decorator, or nullptr when the axis is off
  // (no roles and trust disabled).
  [[nodiscard]] faults::AdversaryRouter* adversary(std::size_t i) {
    return adversary_.empty() ? nullptr : adversary_[i];
  }
  [[nodiscard]] bool adversary_enabled() const { return !adversary_.empty(); }
  [[nodiscard]] bool is_adversary(std::size_t i) const {
    return !adversary_role_.empty() && adversary_role_[i] != 0;
  }

 private:
  // FaultInjector hooks (no-ops unless the scenario carries a plan).
  void fault_crash(std::size_t node, faults::RebootPolicy policy);
  void fault_reboot(std::size_t node, faults::RebootPolicy policy);
  void fault_leave(std::size_t node);
  void fault_join(std::size_t node);
  void fault_partition(const faults::PartitionEvent& ev);
  void fault_heal();
  // Custody re-offer burst when `node` (re)appears: its current neighbors
  // offer their stores to it and vice versa. No-op when custody is off.
  void custody_contact_burst(std::size_t node);
  struct NodeStack {
    std::unique_ptr<phy::Radio> radio;
    std::unique_ptr<mac::CsmaMac> mac;
    std::unique_ptr<MulticastRouter> router;    // built by the registry
    std::unique_ptr<gossip::GossipAgent> agent;
    std::unique_ptr<app::MulticastSink> sink;   // members only
    std::unique_ptr<session::SessionManager> sessions;  // configured members
  };

  ScenarioConfig config_;
  sim::Simulator sim_;
  // Thread-local data-plane counters at construction; result() reports
  // the delta this network caused (construction, run and result all
  // happen on one thread).
  net::DataPlaneCounters dpc_baseline_;
  std::unique_ptr<mobility::RandomWaypoint> mobility_;
  std::unique_ptr<phy::Channel> channel_;
  std::vector<std::unique_ptr<NodeStack>> stacks_;
  std::unique_ptr<app::MulticastSource> source_;
  std::unique_ptr<faults::FaultInjector> injector_;
  // Custody tier (empty/null when custody is off — the zero-cost default):
  // per-node decorator pointers (owned by the stacks), the gateway flags,
  // and the contact monitor driving contact-based re-offers.
  std::vector<dtn::CustodyRouter*> custody_;
  std::vector<std::uint8_t> gateway_;
  std::unique_ptr<dtn::ContactMonitor> contact_monitor_;
  // Adversary axis (empty when the axis is off): per-node decorator
  // pointers (owned by the stacks, below any custody wrap), the resolved
  // role per node (0 = honest, else AdversaryMode + 1 — the ground truth
  // result() classifies isolations against), and the selective-forward
  // drop probability.
  std::vector<faults::AdversaryRouter*> adversary_;
  std::vector<std::uint8_t> adversary_role_;
  std::vector<double> adversary_drop_;
  // Application-level intent per node: whether it currently wants group
  // membership (drives the automatic rejoin after a reboot).
  std::vector<std::uint8_t> wants_member_;
};

// Builds, runs and summarizes one scenario.
[[nodiscard]] stats::RunResult run_scenario(const ScenarioConfig& config);

}  // namespace ag::harness

#endif  // AG_HARNESS_NETWORK_H
