#include "harness/network.h"

#include <algorithm>

#include "harness/protocol_registry.h"

namespace ag::harness {

Network::Network(const ScenarioConfig& config)
    : config_{config}, sim_{config.seed}, dpc_baseline_{net::data_plane_counters()} {
  // Start from a cold packet pool: the hit/miss split this run reports
  // must not depend on what else this worker thread ran before.
  net::PacketPool::local().clear();
  mobility_ = std::make_unique<mobility::RandomWaypoint>(
      sim_, config_.node_count, config_.waypoint, sim_.rng().stream("mobility"));
  channel_ = std::make_unique<phy::Channel>(sim_, *mobility_, config_.phy);

  // Resolve the run's fault plan up front: scripted events plus whatever
  // the spec synthesizes for this seed (its own rng stream, so fault
  // synthesis never perturbs mobility/MAC/gossip draws).
  faults::FaultPlan plan = config_.faults.plan;
  if (config_.faults.spec.any()) {
    faults::synthesize_into(plan, config_.faults.spec, config_.node_count,
                            config_.member_count(), source_index(),
                            config_.duration.to_seconds(), sim_.rng().stream("faults"));
  }
  // Adversary axis: resolved the same way (scripted roles plus synthesis
  // on its own dedicated stream). Unarmed — no roles and trust off — the
  // stack built below is exactly the pre-adversary one: no decorator, no
  // sniffer, no extra stream use.
  const bool adversary_on = config_.faults.spec.adversaries_any() ||
                            !plan.adversaries.empty() || config_.trust.enabled;
  if (adversary_on && config_.faults.spec.adversaries_any()) {
    faults::synthesize_adversaries_into(plan, config_.faults.spec,
                                        config_.node_count, source_index(),
                                        sim_.rng().stream("adversary"));
  }
  plan.validate(config_.node_count);
  const bool faulted = !plan.empty();
  if (adversary_on) {
    adversary_.assign(config_.node_count, nullptr);
    adversary_role_.assign(config_.node_count, 0);
    adversary_drop_.assign(config_.node_count, 0.0);
    for (const faults::AdversaryAssignment& a : plan.adversaries) {
      adversary_role_[a.node] = static_cast<std::uint8_t>(a.mode) + 1;
      adversary_drop_[a.node] = a.drop_fraction;
    }
  }

  const ProtocolEntry& protocol = ProtocolRegistry::instance().entry(config_.protocol);
  const std::size_t members = config_.member_count();

  // DTN custody tier: decorator + contact monitor, built only when the
  // scenario asks for it. Off, the stack below is exactly the pre-custody
  // one.
  if (config_.custody.enabled) {
    custody_.assign(config_.node_count, nullptr);
    gateway_.assign(config_.node_count, 0);
    // Designated gateways, spread evenly over the node index space (node
    // placement is uniform, so index spread approximates spatial spread).
    const std::size_t g = config_.custody.gateway_count;
    for (std::size_t k = 1; k <= g && config_.node_count > 0; ++k) {
      gateway_[(k * config_.node_count) / (g + 1) % config_.node_count] = 1;
    }
  }

  for (std::size_t i = 0; i < config_.node_count; ++i) {
    auto stack = std::make_unique<NodeStack>();
    const net::NodeId id{static_cast<std::uint32_t>(i)};
    stack->radio = std::make_unique<phy::Radio>(*channel_, i);
    stack->mac = std::make_unique<mac::CsmaMac>(sim_, *stack->radio, *channel_, id,
                                                config_.mac, sim_.rng().stream("mac", i));

    stack->router = ProtocolRegistry::instance().build(
        RouterContext{sim_, *stack->mac, id, i, config_});
    if (adversary_on) {
      // Innermost decorator: adversarial misbehavior (or honest trust
      // monitoring) sits directly on the protocol, below any custody
      // wrap, so custody handoffs flow through the adversary seam too.
      faults::AdversaryRouter::Role role;
      role.adversarial = adversary_role_[i] != 0;
      if (role.adversarial) {
        role.mode = static_cast<faults::AdversaryMode>(adversary_role_[i] - 1);
        role.drop_fraction = adversary_drop_[i];
      }
      const bool expect_all_relays = config_.protocol == Protocol::flooding ||
                                     config_.protocol == Protocol::flooding_gossip;
      auto wrapped = std::make_unique<faults::AdversaryRouter>(
          sim_, *stack->mac, std::move(stack->router), role, config_.trust,
          expect_all_relays, sim_.rng().stream("adversary_drop", i));
      adversary_[i] = wrapped.get();
      stack->router = std::move(wrapped);
    }
    if (config_.custody.enabled) {
      // Wrap whatever the registry built: custody is protocol-agnostic.
      auto wrapped = std::make_unique<dtn::CustodyRouter>(
          sim_, *stack->mac, std::move(stack->router), config_.custody,
          is_gateway(i));
      custody_[i] = wrapped.get();
      stack->router = std::move(wrapped);
    }

    gossip::GossipParams gp = config_.gossip;
    gp.enabled = gp.enabled && protocol.gossip_capable;
    stack->agent = std::make_unique<gossip::GossipAgent>(sim_, *stack->router, gp,
                                                         sim_.rng().stream("gossip", i));
    stack->router->set_observer(stack->agent.get());

    // Fault runs give every node a sink so that a node joining mid-run
    // (a plan membership event) is accounted from its first subscription.
    if (i < members || faulted) {
      stack->sink = std::make_unique<app::MulticastSink>(sim_);
      app::MulticastSink* sink = stack->sink.get();
      stack->agent->set_deliver([sink](const net::MulticastData& d, bool via_gossip) {
        sink->on_deliver(d, via_gossip);
      });
      if (faulted) sink->set_subscribed(i < members);
      // User-session layer: configured receiving members host per_node
      // logical users (the source is excluded, mirroring MemberResult).
      // Analytic only — its dedicated rng stream and accounting can never
      // perturb the packet-level run.
      if (config_.sessions.enabled() && i < members && i != source_index() &&
          !is_adversary(i)) {
        stack->sessions = std::make_unique<session::SessionManager>(
            config_.sessions, sim_.rng().stream("session", i));
        sink->attach_sessions(stack->sessions.get());
      }
    }
    stacks_.push_back(std::move(stack));
  }

  // Source application on member 0.
  NodeStack& src = *stacks_[source_index()];
  source_ = std::make_unique<app::MulticastSource>(
      sim_, config_.workload,
      [&src](std::uint16_t bytes) { src.router->send_multicast(kGroup, bytes); });

  // Start protocol machinery and schedule joins spread over kJoinSpread.
  wants_member_.assign(config_.node_count, 0);
  sim::Rng join_rng = sim_.rng().stream("join");
  for (std::size_t i = 0; i < stacks_.size(); ++i) {
    NodeStack& s = *stacks_[i];
    s.router->start();
    s.agent->start();
    if (i < members) {
      wants_member_[i] = 1;
      const auto delay = sim::Duration::us(join_rng.uniform_int(0, kJoinSpread.count_us()));
      sim_.schedule_after(
          delay, [this, i] { stacks_[i]->router->join_group(kGroup); },
          sim::EventCategory::router);
    }
  }
  source_->start();

  if (faulted) {
    injector_ = std::make_unique<faults::FaultInjector>(
        sim_, std::move(plan),
        faults::FaultHooks{
            [this](std::size_t n, faults::RebootPolicy p) { fault_crash(n, p); },
            [this](std::size_t n, faults::RebootPolicy p) { fault_reboot(n, p); },
            [this](std::size_t n) { fault_leave(n); },
            [this](std::size_t n) { fault_join(n); },
            [this](const faults::PartitionEvent& ev) { fault_partition(ev); },
            [this] { fault_heal(); },
        });
    injector_->arm();
  }

  if (config_.custody.enabled) {
    contact_monitor_ = std::make_unique<dtn::ContactMonitor>(
        sim_, *mobility_, *channel_, config_.node_count,
        config_.phy.transmission_range_m,
        [this](std::size_t node, std::size_t peer) {
          custody_[node]->offer_to(net::NodeId{static_cast<std::uint32_t>(peer)});
        });
    contact_monitor_->start();
  }
}

void Network::run() { sim_.run_until(config_.duration); }

// ------------------------------------------------------------ fault hooks

void Network::fault_crash(std::size_t node, faults::RebootPolicy policy) {
  channel_->set_node_down(node, true);
  NodeStack& s = *stacks_[node];
  if (policy == faults::RebootPolicy::wipe) {
    s.mac->power_cycle();
    s.router->reset();
    s.agent->reset();
  }
  if (s.sink != nullptr) s.sink->set_subscribed(false);
}

void Network::fault_reboot(std::size_t node, faults::RebootPolicy policy) {
  channel_->set_node_down(node, false);
  NodeStack& s = *stacks_[node];
  if (policy == faults::RebootPolicy::wipe) {
    s.router->start();
    s.agent->start();
  }
  if (wants_member_[node] != 0) {
    // The application relaunches and re-subscribes (a no-op join when the
    // preserve policy kept protocol membership alive).
    s.router->join_group(kGroup);
    if (s.sink != nullptr) s.sink->set_subscribed(true);
  }
  // Custody re-offer on rejoin: the node's current neighborhood hands it
  // whatever it missed while down (its own store also re-spreads).
  custody_contact_burst(node);
}

void Network::fault_leave(std::size_t node) {
  wants_member_[node] = 0;
  stacks_[node]->router->leave_group(kGroup);
  if (stacks_[node]->sink != nullptr) stacks_[node]->sink->set_subscribed(false);
}

void Network::fault_join(std::size_t node) {
  wants_member_[node] = 1;
  stacks_[node]->router->join_group(kGroup);
  if (stacks_[node]->sink != nullptr) stacks_[node]->sink->set_subscribed(true);
  // A fresh subscriber is a contact too: neighbors re-offer their custody
  // backlog so it can catch up on recent traffic it is now eligible for.
  custody_contact_burst(node);
}

void Network::custody_contact_burst(std::size_t node) {
  if (contact_monitor_ == nullptr) return;
  const net::NodeId id{static_cast<std::uint32_t>(node)};
  for (const std::size_t nb : contact_monitor_->neighbors_of(node)) {
    custody_[nb]->offer_to(id);
    custody_[node]->offer_to(net::NodeId{static_cast<std::uint32_t>(nb)});
  }
}

void Network::fault_partition(const faults::PartitionEvent& ev) {
  const sim::SimTime now = sim_.now();
  std::vector<std::uint8_t> side(stacks_.size(), 0);
  if (ev.a == 0.0 && ev.b == 0.0) {
    // Auto cut: vertical line through the median x coordinate, which
    // always splits the network into two non-trivial halves.
    std::vector<double> xs(stacks_.size());
    for (std::size_t i = 0; i < stacks_.size(); ++i) {
      xs[i] = mobility_->position_of(i, now).x;
    }
    std::vector<double> sorted = xs;
    auto mid = sorted.begin() + static_cast<std::ptrdiff_t>(sorted.size() / 2);
    std::nth_element(sorted.begin(), mid, sorted.end());
    const double median = *mid;
    for (std::size_t i = 0; i < stacks_.size(); ++i) side[i] = xs[i] < median ? 1 : 0;
  } else {
    for (std::size_t i = 0; i < stacks_.size(); ++i) {
      const mobility::Vec2 p = mobility_->position_of(i, now);
      side[i] = (ev.a * p.x + ev.b * p.y <= ev.c) ? 1 : 0;
    }
  }
  channel_->set_partition(std::move(side));
}

void Network::fault_heal() {
  channel_->clear_partition();
  if (contact_monitor_ == nullptr) return;
  // Gateway bridge: the designated gateways burst-offer their (elevated)
  // custody backlog into the freshly reunited neighborhood immediately —
  // the periodic contact poll would bridge the cut anyway, but only at
  // its next tick. Gateways act the instant the cut heals.
  for (std::size_t g = 0; g < gateway_.size(); ++g) {
    if (gateway_[g] == 0 || channel_->is_node_down(g)) continue;
    for (const std::size_t nb : contact_monitor_->neighbors_of(g)) {
      custody_[g]->offer_to(net::NodeId{static_cast<std::uint32_t>(nb)});
    }
  }
}

// ----------------------------------------------------------------- result

stats::RunResult Network::result() const {
  stats::RunResult r;
  r.seed = config_.seed;
  r.packets_sent = source_ == nullptr ? 0 : source_->sent();

  const std::size_t members = config_.member_count();
  for (std::size_t i = 0; i < stacks_.size(); ++i) {
    if (i == source_index()) continue;  // the source trivially has everything
    // Compromised nodes don't score delivery: a blackhole "member" that
    // absorbed everything would read as catastrophic loss when it is in
    // fact the attack — the honest members' ratios are the measurement.
    if (is_adversary(i)) continue;
    const NodeStack& s = *stacks_[i];
    // Rows: the configured members, plus any node a fault plan subscribed
    // mid-run. Nodes that never joined have nothing to report.
    const bool configured_member = i < members;
    if (!configured_member &&
        (s.sink == nullptr || !s.sink->ever_subscribed())) {
      continue;
    }
    stats::MemberResult m;
    m.node = net::NodeId{static_cast<std::uint32_t>(i)};
    m.received = s.sink != nullptr ? s.sink->received() : 0;
    m.via_gossip = s.sink != nullptr ? s.sink->via_gossip() : 0;
    m.replies_received = s.agent->counters().replies_received;
    m.replies_useful = s.agent->counters().replies_useful;
    m.mean_latency_s = s.sink != nullptr ? s.sink->mean_latency_s() : 0.0;
    if (s.sink != nullptr && s.sink->tracking() && source_ != nullptr) {
      // Churn accounting: the member answers only for packets sourced
      // while it was subscribed.
      m.eligible = 0;
      for (sim::SimTime t : source_->send_times()) {
        if (s.sink->subscribed_at(t)) ++m.eligible;
      }
    }
    r.members.push_back(m);
  }

  stats::NetworkTotals& t = r.totals;
  t.channel_transmissions = channel_->transmissions();
  t.phy_deliveries = channel_->deliveries();
  t.phy_suppressed_down = channel_->suppressed_down();
  t.phy_suppressed_partition = channel_->suppressed_partition();
  t.phy_rx_elided = channel_->engine().rx_elided();
  t.phy_rx_coalesced = channel_->engine().rx_coalesced();
  t.sim_events = sim_.executed_events();
  const sim::Simulator::EventMix& mix = sim_.event_mix();
  for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c) {
    t.ev_scheduled[c] = mix.scheduled[c];
    t.ev_executed[c] = mix.executed[c];
  }
  const net::DataPlaneCounters& dpc = net::data_plane_counters();
  t.table_probes = dpc.table_probes - dpc_baseline_.table_probes;
  t.pool_hits = dpc.pool_hits - dpc_baseline_.pool_hits;
  t.pool_misses = dpc.pool_misses - dpc_baseline_.pool_misses;
  for (const auto& s : stacks_) {
    t.mac_unicast += s->mac->counters().unicast_sent;
    t.mac_broadcast += s->mac->counters().broadcast_sent;
    t.mac_backoff_slots_credited += s->mac->countdown().counters().backoff_slots_credited;
    t.mac_difs_elided += s->mac->countdown().counters().difs_events_elided;
    t.mac_collisions += s->radio->counters().frames_corrupted;
    t.mac_queue_drops += s->mac->counters().queue_drops;
    const auto& g = s->agent->counters();
    t.gossip_walks += g.walks_initiated;
    t.gossip_replies += g.replies_sent;
    t.nm_updates += g.nm_updates_sent;
    s->router->add_totals(t);
  }
  if (injector_ != nullptr) r.faults = injector_->stats();

  // Adversary axis accounting. Per-decorator counters flowed in through
  // add_totals above; isolation classification needs the ground-truth
  // role map, so it happens here.
  if (adversary_enabled()) {
    t.adversary_active = true;
    std::vector<sim::SimTime> first_detect(stacks_.size());
    std::vector<std::uint8_t> detected(stacks_.size(), 0);
    for (std::size_t i = 0; i < stacks_.size(); ++i) {
      if (adversary_[i] == nullptr) continue;
      for (const faults::AdversaryRouter::Isolation& iso :
           adversary_[i]->isolation_log()) {
        ++t.trust_isolations;
        const auto target = static_cast<std::size_t>(iso.neighbor.value());
        if (target >= stacks_.size() || adversary_role_[target] == 0) {
          ++t.trust_false_positives;
        } else if (detected[target] == 0 || iso.at < first_detect[target]) {
          detected[target] = 1;
          first_detect[target] = iso.at;
        }
      }
    }
    // Detection latency: workload start -> first isolation by ANY
    // monitor, averaged over the true adversaries detected at all.
    double latency_sum = 0.0;
    std::uint64_t detections = 0;
    for (std::size_t i = 0; i < stacks_.size(); ++i) {
      if (detected[i] == 0) continue;
      latency_sum += std::max(0.0, (first_detect[i] - config_.workload.start).to_seconds());
      ++detections;
    }
    t.trust_detection_latency_s =
        detections == 0 ? 0.0 : latency_sum / static_cast<double>(detections);
  }

  // DTN/session accounting ("users served"). The eligibility denominator
  // counts, per sourced packet, the sessions that had subscribed by its
  // source time on nodes that were themselves subscribed then.
  t.dtn_active = custody_enabled() || config_.sessions.enabled();
  if (config_.sessions.enabled() && source_ != nullptr) {
    for (const auto& s : stacks_) {
      if (s->sessions == nullptr) continue;
      t.sessions.sessions += s->sessions->session_count();
      t.sessions.users_served += s->sessions->users_served();
      for (const sim::SimTime ts : source_->send_times()) {
        if (s->sink != nullptr && s->sink->tracking() && !s->sink->subscribed_at(ts)) {
          continue;
        }
        t.sessions.user_eligible += s->sessions->eligible_at(ts);
      }
    }
  }
  return r;
}

stats::RunResult run_scenario(const ScenarioConfig& config) {
  Network net{config};
  net.run();
  return net.result();
}

}  // namespace ag::harness
