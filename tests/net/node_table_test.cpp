// The dense data-plane containers: NodeTable/IdSet (flat, bitmap-backed)
// and DenseMap/DenseSet (open addressing), checked against a std::map
// model over seeded random operation sequences — results, size,
// ascending iteration and one probe count per operation — plus the
// dedup window's eviction order and the packet pool's slab reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "net/data_plane.h"
#include "net/dense_map.h"
#include "net/node_table.h"

namespace ag::net {
namespace {

std::uint64_t probes() { return data_plane_counters().table_probes; }

// Checks every entry, in order, against the model.
void expect_matches(NodeTable<int>& t, const std::map<std::uint32_t, int>& model) {
  std::vector<std::pair<std::uint32_t, int>> seen;
  const std::uint64_t before = probes();
  t.for_each([&](NodeId id, int& v) { seen.emplace_back(id.value(), v); });
  EXPECT_EQ(probes(), before) << "for_each is not a probe";
  EXPECT_EQ(seen, (std::vector<std::pair<std::uint32_t, int>>{model.begin(), model.end()}));
  EXPECT_EQ(t.size(), model.size());
  EXPECT_EQ(t.empty(), model.empty());
}

TEST(NodeTable, RandomOperationsMatchStdMapModel) {
  std::mt19937_64 rng{20261017};
  NodeTable<int> t;
  std::map<std::uint32_t, int> model;
  for (int step = 0; step < 20000; ++step) {
    // 300 keys span five bitmap words and several slot regrowths.
    const auto k = static_cast<std::uint32_t>(rng() % 300);
    const auto op = rng() % 100;
    const std::uint64_t before = probes();
    std::uint64_t expected_probes = 1;
    if (op < 30) {
      const int* v = t.find(NodeId{k});
      const auto it = model.find(k);
      ASSERT_EQ(v != nullptr, it != model.end()) << "step " << step;
      if (v != nullptr) {
        EXPECT_EQ(*v, it->second);
      }
    } else if (op < 60) {
      const auto [v, inserted] = t.try_emplace(NodeId{k}, step);
      const auto [it, model_inserted] = model.try_emplace(k, step);
      EXPECT_EQ(inserted, model_inserted) << "step " << step;
      EXPECT_EQ(*v, it->second) << "try_emplace must not clobber";
    } else if (op < 85) {
      EXPECT_EQ(t.erase(NodeId{k}), model.erase(k) > 0) << "step " << step;
    } else if (op < 98) {
      expected_probes = 0;
      const auto mod = static_cast<std::uint32_t>(2 + rng() % 5);
      std::vector<std::uint32_t> visited;
      const std::size_t erased = t.erase_if([&](NodeId id, int& v) {
        visited.push_back(id.value());
        return (id.value() + static_cast<std::uint32_t>(v)) % mod == 0;
      });
      std::vector<std::uint32_t> model_keys;
      std::size_t model_erased = 0;
      for (auto it = model.begin(); it != model.end();) {
        model_keys.push_back(it->first);
        if ((it->first + static_cast<std::uint32_t>(it->second)) % mod == 0) {
          it = model.erase(it);
          ++model_erased;
        } else {
          ++it;
        }
      }
      EXPECT_EQ(visited, model_keys) << "erase_if visits every entry ascending";
      EXPECT_EQ(erased, model_erased);
    } else {
      expected_probes = 0;
      t.clear();
      model.clear();
    }
    EXPECT_EQ(probes() - before, expected_probes) << "step " << step << " op " << op;
    if (step % 97 == 0) expect_matches(t, model);
  }
  expect_matches(t, model);
}

TEST(NodeTable, ErasedSlotsReleaseCapturedState) {
  // erase() must reset the slot to T{} so captured resources free eagerly.
  NodeTable<std::vector<int>> t;
  t[NodeId{1}] = std::vector<int>(1000, 7);
  EXPECT_TRUE(t.erase(NodeId{1}));
  EXPECT_TRUE(t[NodeId{1}].empty());  // re-created slot starts from T{}
}

TEST(IdSet, SetSemantics) {
  IdSet<GroupId> s;
  EXPECT_TRUE(s.insert(GroupId{1}));
  EXPECT_FALSE(s.insert(GroupId{1}));
  EXPECT_TRUE(s.contains(GroupId{1}));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.erase(GroupId{1}));
  EXPECT_FALSE(s.erase(GroupId{1}));
  EXPECT_TRUE(s.empty());
}

TEST(DenseMap, RandomOperationsMatchStdMapModelAcrossTombstoneChurn) {
  // Alternating insert-heavy and erase-heavy phases over sparse packed-id
  // keys: erase phases leave tombstones, the next insert phase reuses
  // them, flushes them in same-size rebuilds and doubles the slot array.
  std::mt19937_64 rng{7};
  DenseMap<int> m;
  std::map<std::uint64_t, int> model;
  for (int step = 0; step < 40000; ++step) {
    const bool growing = (step / 4000) % 2 == 0;
    const std::uint64_t k = msg_key(MsgId{NodeId{static_cast<std::uint32_t>(rng() % 64)},
                                          static_cast<std::uint32_t>(rng() % 64)});
    const auto op = rng() % 100;
    const std::uint64_t before = probes();
    std::uint64_t expected_probes = 1;
    if (op < 25) {
      const int* v = m.find(k);
      const auto it = model.find(k);
      ASSERT_EQ(v != nullptr, it != model.end()) << "step " << step;
      if (v != nullptr) {
        EXPECT_EQ(*v, it->second);
      }
    } else if (op < (growing ? 85u : 45u)) {
      const auto [v, inserted] = m.try_emplace(k, step);
      const auto [it, model_inserted] = model.try_emplace(k, step);
      EXPECT_EQ(inserted, model_inserted) << "step " << step;
      EXPECT_EQ(*v, it->second) << "try_emplace must not clobber";
    } else if (op < 99) {
      EXPECT_EQ(m.erase(k), model.erase(k) > 0) << "step " << step;
    } else {
      expected_probes = 0;
      // Unspecified visit order: compare the erased key sets.
      std::vector<std::uint64_t> erased;
      m.erase_if([&](std::uint64_t key, int& v) {
        if (v % 3 != 0) return false;
        erased.push_back(key);
        return true;
      });
      std::vector<std::uint64_t> model_erased;
      std::erase_if(model, [&](const auto& kv) {
        if (kv.second % 3 != 0) return false;
        model_erased.push_back(kv.first);
        return true;
      });
      std::sort(erased.begin(), erased.end());
      EXPECT_EQ(erased, model_erased);
    }
    if (step == 20000) {
      m.clear();
      model.clear();
    }
    EXPECT_EQ(probes() - before, expected_probes) << "step " << step << " op " << op;
    ASSERT_EQ(m.size(), model.size()) << "step " << step;
    if (step % 1000 == 999) {
      for (const auto& [key, v] : model) {
        ASSERT_NE(m.find(key), nullptr) << "step " << step;
        EXPECT_EQ(*m.find(key), v);
      }
    }
  }
}

TEST(DenseSet, MsgIdKeysRoundTrip) {
  DenseSet s;
  const MsgId a{NodeId{7}, 3};
  const MsgId b{NodeId{3}, 7};  // must not collide with a
  EXPECT_NE(msg_key(a), msg_key(b));
  EXPECT_TRUE(s.insert(msg_key(a)));
  EXPECT_FALSE(s.insert(msg_key(a)));
  EXPECT_FALSE(s.contains(msg_key(b)));
  EXPECT_TRUE(s.erase(msg_key(a)));
  EXPECT_TRUE(s.empty());
}

TEST(DedupWindow, ForgetsTheOldestIdPastCapacity) {
  DedupWindow w;
  for (std::uint32_t seq = 0; seq <= DedupWindow::kCapacity; ++seq) {
    EXPECT_TRUE(w.insert(MsgId{NodeId{1}, seq}));
  }
  EXPECT_FALSE(w.insert(MsgId{NodeId{1}, 1}));
  EXPECT_TRUE(w.insert(MsgId{NodeId{1}, 0}));  // evicted, so new again
  EXPECT_TRUE(w.insert(MsgId{NodeId{1}, 1}));  // evicted by that insert
  w.clear();
  EXPECT_TRUE(w.insert(MsgId{NodeId{1}, 5}));
}

TEST(PacketPool, ReusesSlabsAndCountsHits) {
  PacketPool& pool = PacketPool::local();
  DataPlaneCounters& c = data_plane_counters();
  Packet p;
  p.src = NodeId{1};
  p.payload = MulticastData{GroupId{1}, NodeId{1}, 0, 64, {}, 0};

  PacketPtr first = pool.make(Packet{p});
  const Packet* slab = first.get();
  first.reset();  // slab returns to the free list
  ASSERT_GT(pool.free_count(), 0u);

  const std::uint64_t hits_before = c.pool_hits;
  PacketPtr second = pool.make(Packet{p});
  EXPECT_EQ(second.get(), slab) << "slab must be recycled LIFO";
  EXPECT_EQ(c.pool_hits, hits_before + 1);
  EXPECT_EQ(second->src, NodeId{1});
}

}  // namespace
}  // namespace ag::net
