// Per-layer host-time attribution for the traced pass, measured from the
// outside: decorators wrap the simulator's public layer seams and time the
// calls that cross them. Nothing under src/ knows it is being traced.
//
//  - Router seam: RouterSeam shadows each protocol's ProtocolRegistry
//    entry so every router the registry builds is wrapped in a decorator
//    that is its MAC listener, its observer's router, and the gossip
//    agent's routing adapter (the CustodyRouter pattern). MAC->router,
//    app->router and gossip->router calls are timed as `router`;
//    router->gossip calls as `gossip`.
//  - MAC seam: MacSeam replaces each node's entry in the batched phy
//    engine's listener table with a forwarding RadioListener, so every
//    radio notification to the MAC is timed as `mac`.
//
// Sampling: one in kStride top-level seam calls (a deterministic counter
// per seam; the simulator's rng is never touched) is timed together with
// its whole subtree of nested seam calls. A span's self time is its
// duration minus its child spans, less the calibrated clock cost, and a
// root seam's spans are scaled by its calls / sampled calls. Work outside
// every seam -- the event kernel, phy, mobility and timer-driven protocol
// code -- is the remainder, `below_seams`.
#ifndef AGBENCH_SEAMS_H
#define AGBENCH_SEAMS_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/network.h"
#include "harness/protocol_registry.h"
#include "phy/batched_phy.h"

namespace agbench {

// Host steady-clock time in nanoseconds.
[[nodiscard]] std::int64_t now_ns();

enum class Layer : std::uint8_t { mac, router, gossip };
inline constexpr std::size_t kLayerCount = 3;
[[nodiscard]] const char* layer_name(std::size_t layer);

// One entry per decorated seam function.
enum class Seam : std::uint8_t {
  // radio -> MAC
  mac_frame_received,
  mac_medium_busy,
  mac_medium_idle,
  mac_transmit_complete,
  // MAC -> router
  router_packet_received,
  router_unicast_failed,
  // harness and application -> router
  router_start,
  router_reset,
  router_join_group,
  router_leave_group,
  router_send_multicast,
  // gossip -> router
  router_self,
  router_is_member,
  router_on_tree,
  router_tree_neighbors,
  router_unicast,
  router_send_to_neighbor,
  router_route_hint,
  router_route_hops,
  // router -> gossip
  gossip_multicast_data,
  gossip_tree_neighbor_added,
  gossip_tree_neighbor_removed,
  gossip_self_membership_changed,
  gossip_member_learned,
  gossip_packet,
};
inline constexpr std::size_t kSeamCount = 25;
[[nodiscard]] const char* seam_name(std::size_t seam);

// Tracing cost, measured on this host before the traced passes.
struct Calibration {
  double self_bias_ns{0.0};   // clock cost inside a span's own interval
  double child_bias_ns{0.0};  // a child span's cost outside its interval,
                              // which lands in the parent's self time
  double call_cost_ns{0.0};   // bookkeeping and forwarding hop of a call
                              // that is not timed
  [[nodiscard]] double span_cost_ns() const { return self_bias_ns + child_bias_ns; }
};

class Tracer {
 public:
  static constexpr std::uint32_t kStride = 64;

  explicit Tracer(std::uint32_t stride = kStride) : stride_{stride} {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void enter(Seam seam);
  void exit();

  // Estimated host seconds spent in `layer`'s own code (children excluded)
  // over everything traced so far, clock cost removed.
  [[nodiscard]] double self_s(std::size_t layer, const Calibration& cal) const;
  // Every call that crossed one of the layer's seams.
  [[nodiscard]] std::uint64_t calls(std::size_t layer) const;
  // Host seconds the tracing itself added: every timed span and every
  // counted-only call, at their calibrated costs.
  [[nodiscard]] double overhead_s(const Calibration& cal) const;
  // Per-seam aggregate as one JSON object: calls, top-level calls, sampled
  // calls, and the estimated self seconds of each layer under that root.
  [[nodiscard]] std::string seams_json(const Calibration& cal) const;

  // Measures the clock cost of a span on this host (median of rounds).
  [[nodiscard]] static Calibration calibrate();

 private:
  struct Frame {
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint64_t children;
    Layer layer;
  };
  // Raw aggregate of the spans of one layer under one root seam.
  struct Cell {
    std::int64_t self_ns{0};
    std::uint64_t spans{0};
    std::uint64_t children{0};
  };
  // One seam function's counts, together so that a call touches one line.
  struct SeamCounts {
    std::uint64_t calls{0};
    std::uint64_t top_calls{0};  // calls made with no seam call in progress
    std::uint64_t sampled{0};    // top-level calls timed with their subtree
    std::uint32_t countdown{0};  // top-level calls left before the next sample
  };

  // The timed path, taken by one top-level call in kStride and its subtree.
  void begin_span(Seam seam);
  void end_span();
  [[nodiscard]] double cell_self_ns(std::size_t root, std::size_t layer,
                                    const Calibration& cal) const;

  static constexpr std::size_t kMaxDepth = 64;
  std::size_t depth_{0};
  bool sampling_{false};
  std::size_t root_{0};  // the sampled top-level seam
  std::uint32_t stride_;
  std::array<SeamCounts, kSeamCount> seams_{};
  std::array<Frame, kMaxDepth> frames_{};
  std::array<std::array<Cell, kLayerCount>, kSeamCount> cells_{};
};

// RAII span around one seam call.
class Span {
 public:
  Span(Tracer& tracer, Seam seam) : tracer_{tracer} { tracer_.enter(seam); }
  ~Span() { tracer_.exit(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

// While alive, every router the registry builds for `protocols` is wrapped
// in the tracing decorator; the original entries come back on destruction.
class RouterSeam {
 public:
  RouterSeam(Tracer& tracer, const std::vector<ag::harness::Protocol>& protocols);
  ~RouterSeam();
  RouterSeam(const RouterSeam&) = delete;
  RouterSeam& operator=(const RouterSeam&) = delete;

 private:
  std::vector<ag::harness::ProtocolEntry> saved_;
};

class TracedMac;

// Puts a timing wrapper in front of every node's MAC in `net`'s batched
// phy listener table; the MACs are put back on destruction. Install after
// construction and before run(); `net` must outlive the seam.
class MacSeam {
 public:
  MacSeam(Tracer& tracer, ag::harness::Network& net);
  ~MacSeam();
  MacSeam(const MacSeam&) = delete;
  MacSeam& operator=(const MacSeam&) = delete;

 private:
  ag::harness::Network& net_;
  ag::phy::BatchedPhy& engine_;
  std::vector<std::unique_ptr<TracedMac>> wrappers_;
};

}  // namespace agbench

#endif  // AGBENCH_SEAMS_H
