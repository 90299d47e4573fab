#include "seams.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "gossip/routing_adapter.h"
#include "harness/multicast_router.h"
#include "mac/csma_mac.h"
#include "phy/radio.h"

namespace agbench {

std::int64_t now_ns() {
  // ag-lint: allow(determinism, the benchmark measures host time, never sim time)
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
}

const char* layer_name(std::size_t layer) {
  constexpr const char* kNames[kLayerCount] = {"mac", "router", "gossip"};
  return layer < kLayerCount ? kNames[layer] : "?";
}

const char* seam_name(std::size_t seam) {
  constexpr const char* kNames[kSeamCount] = {
      "mac.on_frame_received",
      "mac.on_medium_busy",
      "mac.on_medium_idle",
      "mac.on_transmit_complete",
      "router.on_packet_received",
      "router.on_unicast_failed",
      "router.start",
      "router.reset",
      "router.join_group",
      "router.leave_group",
      "router.send_multicast",
      "router.self",
      "router.is_member",
      "router.on_tree",
      "router.tree_neighbors",
      "router.unicast",
      "router.send_to_neighbor",
      "router.route_hint",
      "router.route_hops",
      "gossip.on_multicast_data",
      "gossip.on_tree_neighbor_added",
      "gossip.on_tree_neighbor_removed",
      "gossip.on_self_membership_changed",
      "gossip.on_member_learned",
      "gossip.on_gossip_packet",
  };
  return seam < kSeamCount ? kNames[seam] : "?";
}

namespace {

Layer seam_layer(Seam seam) {
  if (seam <= Seam::mac_transmit_complete) return Layer::mac;
  if (seam <= Seam::router_route_hops) return Layer::router;
  return Layer::gossip;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Makes the calibration loops load and store the tracer's state on every
// call, as the decorators do, instead of keeping it in registers.
void clobber(const Tracer& t) { asm volatile("" : : "r"(&t) : "memory"); }

// Stands in for the call a decorator forwards: the hop it adds on top of
// the caller's own call into the layer.
[[gnu::noinline]] void forwarded_call() { asm volatile(""); }
void (*volatile forward)() = forwarded_call;

}  // namespace

// ------------------------------------------------------------------ Tracer

void Tracer::enter(Seam seam) {
  const auto s = static_cast<std::size_t>(seam);
  SeamCounts& counts = seams_[s];
  ++counts.calls;
  if (depth_ == 0) {
    ++counts.top_calls;
    if (counts.countdown == 0) {
      counts.countdown = stride_;
      ++counts.sampled;
      root_ = s;
      sampling_ = true;
    }
    --counts.countdown;
  } else if (depth_ == kMaxDepth) [[unlikely]] {
    std::fprintf(stderr, "agbench: seam calls nested deeper than %zu\n", kMaxDepth);
    std::abort();
  }
  if (sampling_) begin_span(seam);
  ++depth_;
}

void Tracer::exit() {
  --depth_;
  if (sampling_) end_span();
}

[[gnu::noinline]] void Tracer::begin_span(Seam seam) {
  Frame& f = frames_[depth_];
  f.child_ns = 0;
  f.children = 0;
  f.layer = seam_layer(seam);
  f.start_ns = now_ns();
}

[[gnu::noinline]] void Tracer::end_span() {
  const std::int64_t end = now_ns();
  const Frame& f = frames_[depth_];
  const std::int64_t duration = end - f.start_ns;
  Cell& cell = cells_[root_][static_cast<std::size_t>(f.layer)];
  cell.self_ns += duration - f.child_ns;
  ++cell.spans;
  cell.children += f.children;
  if (depth_ > 0) {
    Frame& parent = frames_[depth_ - 1];
    parent.child_ns += duration;
    ++parent.children;
  } else {
    sampling_ = false;
  }
}

double Tracer::cell_self_ns(std::size_t root, std::size_t layer,
                            const Calibration& cal) const {
  const SeamCounts& counts = seams_[root];
  if (counts.sampled == 0) return 0.0;
  const Cell& c = cells_[root][layer];
  const double self = static_cast<double>(c.self_ns) -
                      static_cast<double>(c.spans) * cal.self_bias_ns -
                      static_cast<double>(c.children) * cal.child_bias_ns;
  return self * static_cast<double>(counts.top_calls) / static_cast<double>(counts.sampled);
}

double Tracer::self_s(std::size_t layer, const Calibration& cal) const {
  double ns = 0.0;
  for (std::size_t root = 0; root < kSeamCount; ++root) ns += cell_self_ns(root, layer, cal);
  return ns * 1e-9;
}

std::uint64_t Tracer::calls(std::size_t layer) const {
  std::uint64_t n = 0;
  for (std::size_t s = 0; s < kSeamCount; ++s) {
    if (static_cast<std::size_t>(seam_layer(static_cast<Seam>(s))) == layer) {
      n += seams_[s].calls;
    }
  }
  return n;
}

double Tracer::overhead_s(const Calibration& cal) const {
  std::uint64_t spans = 0;
  for (const auto& row : cells_) {
    for (const Cell& c : row) spans += c.spans;
  }
  std::uint64_t calls = 0;
  for (const SeamCounts& counts : seams_) calls += counts.calls;
  return (static_cast<double>(spans) * cal.span_cost_ns() +
          static_cast<double>(calls - spans) * cal.call_cost_ns) *
         1e-9;
}

std::string Tracer::seams_json(const Calibration& cal) const {
  std::ostringstream out;
  out << "{\"stride\": " << stride_ << ", \"seams\": {";
  bool first = true;
  for (std::size_t s = 0; s < kSeamCount; ++s) {
    const SeamCounts& counts = seams_[s];
    if (counts.calls == 0) continue;
    out << (first ? "" : ", ") << "\"" << seam_name(s) << "\": {\"calls\": " << counts.calls
        << ", \"top_calls\": " << counts.top_calls << ", \"sampled\": " << counts.sampled
        << ", \"self_s\": {";
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      out << (l > 0 ? ", " : "") << "\"" << layer_name(l)
          << "\": " << cell_self_ns(s, l, cal) * 1e-9;
    }
    out << "}}";
    first = false;
  }
  out << "}}";
  return out.str();
}

Calibration Tracer::calibrate() {
  // A parent span with many empty children, every call timed: each child's
  // self time is pure clock cost inside its interval, and the parent's self
  // time is that same cost plus each child's cost outside its interval.
  // Then a run of top-level calls that only forward, none timed but the first.
  constexpr int kRounds = 15;
  constexpr int kCalls = 2000;
  const auto root = static_cast<std::size_t>(Seam::router_self);
  std::vector<double> self_bias;
  std::vector<double> child_bias;
  std::vector<double> call_cost;
  for (int r = 0; r < kRounds; ++r) {
    Tracer timed{1};
    timed.enter(Seam::router_self);
    for (int k = 0; k < kCalls; ++k) {
      clobber(timed);
      timed.enter(Seam::gossip_packet);
      clobber(timed);
      timed.exit();
    }
    timed.exit();
    const Cell& parent = timed.cells_[root][static_cast<std::size_t>(Layer::router)];
    const Cell& kids = timed.cells_[root][static_cast<std::size_t>(Layer::gossip)];
    const double a = static_cast<double>(kids.self_ns) / kCalls;
    self_bias.push_back(a);
    child_bias.push_back((static_cast<double>(parent.self_ns) - a) / kCalls);

    Tracer counted{~std::uint32_t{0}};
    counted.enter(Seam::gossip_packet);
    counted.exit();
    const std::int64_t t0 = now_ns();
    for (int k = 0; k < kCalls; ++k) {
      clobber(counted);
      counted.enter(Seam::gossip_packet);
      forward();
      clobber(counted);
      counted.exit();
    }
    call_cost.push_back(static_cast<double>(now_ns() - t0) / kCalls);
  }
  return {median_of(self_bias), median_of(child_bias), median_of(call_cost)};
}

// ------------------------------------------------------------- router seam

namespace {

using ag::net::GroupId;
using ag::net::NodeId;

class TracedRouter final : public ag::harness::MulticastRouter,
                           public ag::mac::MacListener,
                           public ag::gossip::RouterObserver {
 public:
  TracedRouter(Tracer& tracer, ag::mac::CsmaMac& mac,
               std::unique_ptr<ag::harness::MulticastRouter> inner)
      : tracer_{tracer},
        inner_{std::move(inner)},
        inner_listener_{dynamic_cast<ag::mac::MacListener*>(inner_.get())} {
    // The inner router registered itself with the MAC in its constructor;
    // take its place and forward.
    mac.set_listener(this);
  }

  // --- harness::MulticastRouter (harness and application -> router) ---
  void start() override {
    Span span{tracer_, Seam::router_start};
    inner_->start();
  }
  void reset() override {
    Span span{tracer_, Seam::router_reset};
    inner_->reset();
  }
  void set_observer(ag::gossip::RouterObserver* observer) override {
    observer_ = observer;
    inner_->set_observer(this);
  }
  void join_group(GroupId group) override {
    Span span{tracer_, Seam::router_join_group};
    inner_->join_group(group);
  }
  void leave_group(GroupId group) override {
    Span span{tracer_, Seam::router_leave_group};
    inner_->leave_group(group);
  }
  std::uint32_t send_multicast(GroupId group, std::uint16_t payload_bytes) override {
    Span span{tracer_, Seam::router_send_multicast};
    return inner_->send_multicast(group, payload_bytes);
  }
  void add_totals(ag::stats::NetworkTotals& totals) const override {
    inner_->add_totals(totals);
  }

  // --- gossip::RoutingAdapter (gossip -> router) ---
  [[nodiscard]] NodeId self() const override {
    Span span{tracer_, Seam::router_self};
    return inner_->self();
  }
  [[nodiscard]] bool is_member(GroupId group) const override {
    Span span{tracer_, Seam::router_is_member};
    return inner_->is_member(group);
  }
  [[nodiscard]] bool on_tree(GroupId group) const override {
    Span span{tracer_, Seam::router_on_tree};
    return inner_->on_tree(group);
  }
  [[nodiscard]] std::vector<NodeId> tree_neighbors(GroupId group) const override {
    Span span{tracer_, Seam::router_tree_neighbors};
    return inner_->tree_neighbors(group);
  }
  void unicast(NodeId dest, ag::net::Payload payload) override {
    Span span{tracer_, Seam::router_unicast};
    inner_->unicast(dest, std::move(payload));
  }
  void send_to_neighbor(NodeId neighbor, ag::net::Payload payload) override {
    Span span{tracer_, Seam::router_send_to_neighbor};
    inner_->send_to_neighbor(neighbor, std::move(payload));
  }
  void route_hint(NodeId dest, NodeId via_neighbor, std::uint8_t hops) override {
    Span span{tracer_, Seam::router_route_hint};
    inner_->route_hint(dest, via_neighbor, hops);
  }
  [[nodiscard]] std::uint8_t route_hops(NodeId dest) const override {
    Span span{tracer_, Seam::router_route_hops};
    return inner_->route_hops(dest);
  }

  // --- mac::MacListener (MAC -> router) ---
  void on_packet_received(const ag::net::Packet& packet, NodeId from) override {
    Span span{tracer_, Seam::router_packet_received};
    if (inner_listener_ != nullptr) inner_listener_->on_packet_received(packet, from);
  }
  void on_unicast_failed(const ag::net::Packet& packet, NodeId next_hop) override {
    Span span{tracer_, Seam::router_unicast_failed};
    if (inner_listener_ != nullptr) inner_listener_->on_unicast_failed(packet, next_hop);
  }

  // --- gossip::RouterObserver (router -> gossip) ---
  void on_multicast_data(const ag::net::MulticastData& data, NodeId from) override {
    Span span{tracer_, Seam::gossip_multicast_data};
    if (observer_ != nullptr) observer_->on_multicast_data(data, from);
  }
  void on_tree_neighbor_added(GroupId group, NodeId neighbor,
                              std::uint16_t member_distance_hint) override {
    Span span{tracer_, Seam::gossip_tree_neighbor_added};
    if (observer_ != nullptr) {
      observer_->on_tree_neighbor_added(group, neighbor, member_distance_hint);
    }
  }
  void on_tree_neighbor_removed(GroupId group, NodeId neighbor) override {
    Span span{tracer_, Seam::gossip_tree_neighbor_removed};
    if (observer_ != nullptr) observer_->on_tree_neighbor_removed(group, neighbor);
  }
  void on_self_membership_changed(GroupId group, bool member) override {
    Span span{tracer_, Seam::gossip_self_membership_changed};
    if (observer_ != nullptr) observer_->on_self_membership_changed(group, member);
  }
  void on_member_learned(GroupId group, NodeId member, std::uint8_t hops) override {
    Span span{tracer_, Seam::gossip_member_learned};
    if (observer_ != nullptr) observer_->on_member_learned(group, member, hops);
  }
  void on_gossip_packet(const ag::net::Packet& packet, NodeId from) override {
    Span span{tracer_, Seam::gossip_packet};
    if (observer_ != nullptr) observer_->on_gossip_packet(packet, from);
  }

 private:
  Tracer& tracer_;
  std::unique_ptr<ag::harness::MulticastRouter> inner_;
  ag::mac::MacListener* inner_listener_;
  ag::gossip::RouterObserver* observer_{nullptr};
};

}  // namespace

RouterSeam::RouterSeam(Tracer& tracer, const std::vector<ag::harness::Protocol>& protocols) {
  ag::harness::ProtocolRegistry& registry = ag::harness::ProtocolRegistry::instance();
  for (const ag::harness::Protocol p : protocols) {
    const bool seen = std::any_of(saved_.begin(), saved_.end(),
                                  [p](const auto& e) { return e.protocol == p; });
    if (seen) continue;
    saved_.push_back(registry.entry(p));
    ag::harness::ProtocolEntry shadow = saved_.back();
    shadow.factory = [original = shadow.factory,
                      &tracer](const ag::harness::RouterContext& ctx) {
      return std::make_unique<TracedRouter>(tracer, ctx.mac, original(ctx));
    };
    registry.add(std::move(shadow));
  }
}

RouterSeam::~RouterSeam() {
  for (ag::harness::ProtocolEntry& e : saved_) {
    ag::harness::ProtocolRegistry::instance().add(std::move(e));
  }
}

// ---------------------------------------------------------------- MAC seam

class TracedMac final : public ag::phy::RadioListener {
 public:
  TracedMac(Tracer& tracer, ag::mac::CsmaMac& mac) : tracer_{tracer}, mac_{mac} {}
  TracedMac(const TracedMac&) = delete;
  TracedMac& operator=(const TracedMac&) = delete;

  void on_frame_received(const ag::mac::Frame& frame) override {
    Span span{tracer_, Seam::mac_frame_received};
    mac_.on_frame_received(frame);
  }
  void on_medium_busy() override {
    Span span{tracer_, Seam::mac_medium_busy};
    mac_.on_medium_busy();
  }
  void on_medium_idle() override {
    Span span{tracer_, Seam::mac_medium_idle};
    mac_.on_medium_idle();
  }
  void on_transmit_complete() override {
    Span span{tracer_, Seam::mac_transmit_complete};
    mac_.on_transmit_complete();
  }

 private:
  Tracer& tracer_;
  ag::mac::CsmaMac& mac_;  // final: the forwarding calls are direct
};

namespace {

ag::phy::BatchedPhy& batched_engine_of(ag::harness::Network& net) {
  ag::phy::BatchedPhy* engine = net.channel().batched_engine();
  if (engine == nullptr) {
    throw std::runtime_error("the MAC seam needs the batched phy engine");
  }
  return *engine;
}

}  // namespace

MacSeam::MacSeam(Tracer& tracer, ag::harness::Network& net)
    : net_{net}, engine_{batched_engine_of(net)} {
  wrappers_.reserve(net.node_count());
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    wrappers_.push_back(std::make_unique<TracedMac>(tracer, net.mac(i)));
    engine_.set_listener(i, wrappers_.back().get());
  }
}

MacSeam::~MacSeam() {
  for (std::size_t i = 0; i < wrappers_.size(); ++i) engine_.set_listener(i, &net_.mac(i));
}

}  // namespace agbench
