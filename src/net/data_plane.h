// Dense data-plane plumbing shared by every layer: per-thread
// allocation/probe counters and the pooled shared-packet allocator the
// zero-copy forwarding path rides on.
#ifndef AG_NET_DATA_PLANE_H
#define AG_NET_DATA_PLANE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.h"

namespace ag::net {

// Engine-mode constant for bench/perf, which records it with every run:
// NodeTable and DenseMap have one (dense) backend.
[[nodiscard]] constexpr bool dense_tables_enabled() { return true; }

// Per-thread data-plane work counters. These count logical operations,
// not physical probe steps — Network diffs them per run into
// NetworkTotals and every BENCH_*.json.
struct DataPlaneCounters {
  std::uint64_t table_probes{0};  // NodeTable/DenseMap lookups + mutations
  std::uint64_t pool_hits{0};     // packets served from the free list
  std::uint64_t pool_misses{0};   // packets that had to allocate
};
[[nodiscard]] DataPlaneCounters& data_plane_counters();

// Shared immutable packet flowing router enqueue -> MAC queue -> Frame ->
// Channel -> every receiver. Copy-on-write: a relay that mutates
// ttl/hops/hop_count builds one fresh pooled packet; nothing downstream
// copies the payload again.
using PacketPtr = std::shared_ptr<const Packet>;

// Thread-local free list for the short-lived control packets (hellos,
// gossip walks and replies, RREQs, MACTs): reuses Packet slabs — and the
// vector capacity inside their payloads — so the per-hop forwarding path
// allocates at most a shared_ptr control block.
class PacketPool {
 public:
  [[nodiscard]] static PacketPool& local();

  // Wraps `packet` in a pooled shared slab (recycled when available).
  [[nodiscard]] PacketPtr make(Packet&& packet);

  // Drops the free list. harness::Network calls this at construction so
  // the per-run pool_hits/pool_misses split never depends on which runs
  // a worker thread happened to execute before — BENCH_*.json stays
  // byte-identical between serial and parallel builds. Slabs still in
  // flight are unaffected (they re-enter the emptied list when dropped).
  void clear();

  [[nodiscard]] std::size_t free_count() const { return free_.size(); }

  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;
  ~PacketPool();

 private:
  static void recycle(const Packet* packet);

  static constexpr std::size_t kMaxFree = 4096;
  std::vector<Packet*> free_;
};

// Convenience for the routers' send paths.
[[nodiscard]] inline PacketPtr make_packet(NodeId src, NodeId dst, std::uint8_t ttl,
                                           Payload payload) {
  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.ttl = ttl;
  pkt.payload = std::move(payload);
  return PacketPool::local().make(std::move(pkt));
}

}  // namespace ag::net

#endif  // AG_NET_DATA_PLANE_H
