#include "host_speed.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <utility>
#include <vector>

#include "seams.h"

namespace agbench {

namespace {

constexpr std::uint32_t kNodes = 4096;
constexpr std::uint32_t kWords = 8;  // state words per node, a power of two
constexpr std::uint32_t kBurstEvents = 50000;
constexpr std::size_t kMinQueued = 64;  // below this, every event relays
constexpr std::size_t kArenaBytes = std::size_t{4} << 20;

struct Packet {
  std::uint32_t origin{0};
  std::uint32_t seq{0};
  std::array<std::uint8_t, 96> body{};
};
using PacketPtr = std::shared_ptr<const Packet>;

class Program;

class Handler {
 public:
  virtual ~Handler() = default;
  virtual void fire(Program& program, std::uint32_t node, const PacketPtr& packet) const = 0;
};

// Folds the packet into the node's state, then relays it.
class Deliver final : public Handler {
 public:
  void fire(Program& program, std::uint32_t node, const PacketPtr& packet) const override;
};

// Mixes eight nodes' state from across the table into the node's, then
// relays the packet.
class Mix final : public Handler {
 public:
  void fire(Program& program, std::uint32_t node, const PacketPtr& packet) const override;
};

const Deliver kDeliver;
const Mix kMix;

class Program {
 public:
  explicit Program(std::pmr::memory_resource* memory)
      : alloc_{memory}, state_(std::size_t{kNodes} * kWords, 1, alloc_), queue_(alloc_) {}

  // Executes kBurstEvents events; returns a checksum of the final state.
  std::uint64_t run() {
    schedule(0, &kDeliver, make_packet(0, 0));
    for (std::uint32_t done = 0; done < kBurstEvents && !queue_.empty(); ++done) {
      std::pop_heap(queue_.begin(), queue_.end(), Later{});
      const Event e = std::move(queue_.back());
      queue_.pop_back();
      now_ = e.at;
      e.handler->fire(*this, e.node, e.packet);
    }
    std::uint64_t sum = now_;
    for (const std::uint64_t w : state_) sum = sum * 31 + w;
    return sum;
  }

  std::uint64_t& word(std::uint32_t node, std::uint32_t i) {
    return state_[std::size_t{node} * kWords + (i & (kWords - 1))];
  }

  // Relays the packet to three nodes nearby, a fresh copy half the time,
  // while the queue is short, and with a chance of one in eight after.
  void relay(std::uint32_t node, const PacketPtr& packet) {
    rng_ = rng_ * 1664525u + 1013904223u;
    const std::uint32_t r = rng_;
    if ((r >> 29) != 0 && queue_.size() >= kMinQueued) return;
    const PacketPtr out = (r & 1u) != 0 ? packet : make_packet(node, packet->seq + 1);
    for (std::uint32_t k = 0; k < 3; ++k) {
      const std::uint32_t to = (node + 1 + (r >> (8 + 4 * k)) % 64) % kNodes;
      const Handler* handler = ((r >> (20 + k)) & 1u) != 0 ? static_cast<const Handler*>(&kMix)
                                                          : &kDeliver;
      schedule(to, handler, out, now_ + 1 + ((r >> (5 * k)) & 255u));
    }
  }

 private:
  struct Event {
    std::uint64_t at;
    std::uint64_t id;
    std::uint32_t node;
    const Handler* handler;
    PacketPtr packet;
  };
  // Orders the heap earliest first, ties in scheduling order.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.id > b.id;
    }
  };

  PacketPtr make_packet(std::uint32_t origin, std::uint32_t seq) {
    Packet p;
    p.origin = origin;
    p.seq = seq;
    for (std::size_t i = 0; i < p.body.size(); ++i) p.body[i] = static_cast<std::uint8_t>(seq + i);
    return std::allocate_shared<Packet>(std::pmr::polymorphic_allocator<Packet>{alloc_}, p);
  }

  void schedule(std::uint32_t node, const Handler* handler, PacketPtr packet,
                std::uint64_t at = 0) {
    queue_.push_back(Event{at, next_id_++, node, handler, std::move(packet)});
    std::push_heap(queue_.begin(), queue_.end(), Later{});
  }

  std::pmr::polymorphic_allocator<std::byte> alloc_;
  std::pmr::vector<std::uint64_t> state_;
  std::pmr::vector<Event> queue_;
  std::uint64_t now_{0};
  std::uint64_t next_id_{0};
  std::uint32_t rng_{777};
};

void Deliver::fire(Program& program, std::uint32_t node, const PacketPtr& packet) const {
  program.word(node, packet->seq) += packet->body[packet->seq % packet->body.size()];
  program.relay(node, packet);
}

void Mix::fire(Program& program, std::uint32_t node, const PacketPtr& packet) const {
  std::uint64_t sum = 0;
  for (std::uint32_t k = 0; k < kWords; ++k) sum += program.word((node + k * 97) % kNodes, k);
  program.word(node, 1) ^= sum;
  program.relay(node, packet);
}

volatile std::uint64_t g_checksum = 0;

}  // namespace

double reference_burst_s() {
  // Every burst allocates from the same buffer, so its memory lies at the
  // same addresses each time, whatever the simulator left in the heap. The
  // buffer is left untouched until used, so only the pages a burst needs
  // count in the process's peak memory.
  static const std::unique_ptr<std::byte[]> buffer =
      std::make_unique_for_overwrite<std::byte[]>(kArenaBytes);
  std::pmr::monotonic_buffer_resource arena{buffer.get(), kArenaBytes};
  std::pmr::unsynchronized_pool_resource pool{&arena};
  const std::int64_t t0 = now_ns();
  Program program{&pool};
  g_checksum = program.run();
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace agbench
