#include "net/data_plane.h"

namespace ag::net {

DataPlaneCounters& data_plane_counters() {
  thread_local DataPlaneCounters counters;
  return counters;
}

PacketPool& PacketPool::local() {
  thread_local PacketPool pool;
  return pool;
}

PacketPool::~PacketPool() {
  // ag-lint: allow(rawalloc, the pool IS the allocator: slab teardown)
  for (Packet* p : free_) delete p;
}

void PacketPool::clear() {
  // ag-lint: allow(rawalloc, the pool IS the allocator: slab teardown)
  for (Packet* p : free_) delete p;
  free_.clear();
}

PacketPtr PacketPool::make(Packet&& packet) {
  DataPlaneCounters& c = data_plane_counters();
  Packet* raw;
  if (!free_.empty()) {
    ++c.pool_hits;
    raw = free_.back();
    free_.pop_back();
    *raw = std::move(packet);
  } else {
    ++c.pool_misses;
    // ag-lint: allow(rawalloc, the pool IS the allocator: slab creation)
    raw = new Packet(std::move(packet));
  }
  return PacketPtr{raw, &PacketPool::recycle};
}

void PacketPool::recycle(const Packet* packet) {
  // Packets live and die on the thread that simulates them, so the local
  // pool here is the one that handed the slab out (or an equally good
  // free list on whatever thread drops the last reference).
  PacketPool& pool = local();
  auto* raw = const_cast<Packet*>(packet);
  if (pool.free_.size() >= kMaxFree) {
    // ag-lint: allow(rawalloc, the pool IS the allocator: overflow release)
    delete raw;
    return;
  }
  pool.free_.push_back(raw);
}

}  // namespace ag::net
