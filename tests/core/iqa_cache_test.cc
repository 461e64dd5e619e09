#include "core/iqa_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace deepeverest {
namespace core {
namespace {

std::vector<float> Row(float v, size_t n = 8) {
  return std::vector<float>(n, v);
}

// Copy-out lookup helper: returns the row's first value or NaN on miss.
bool Contains(IqaCache* cache, int layer, uint32_t id, float* first = nullptr) {
  std::vector<float> row;
  if (!cache->Lookup(layer, id, &row)) return false;
  if (first != nullptr) *first = row[0];
  return true;
}

TEST(IqaCacheTest, MissThenHit) {
  IqaCache cache(1 << 20);
  EXPECT_FALSE(Contains(&cache, 0, 1));
  cache.Insert(0, 1, Row(1.5f));
  float first = 0.0f;
  ASSERT_TRUE(Contains(&cache, 0, 1, &first));
  EXPECT_EQ(first, 1.5f);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(IqaCacheTest, KeysAreLayerScoped) {
  IqaCache cache(1 << 20);
  cache.Insert(0, 7, Row(1.0f));
  cache.Insert(1, 7, Row(2.0f));
  float a = 0.0f, b = 0.0f;
  ASSERT_TRUE(Contains(&cache, 0, 7, &a));
  ASSERT_TRUE(Contains(&cache, 1, 7, &b));
  EXPECT_EQ(a, 1.0f);
  EXPECT_EQ(b, 2.0f);
  EXPECT_EQ(cache.entry_count(), 2u);
}

TEST(IqaCacheTest, GatherManyExtractsSelectedNeurons) {
  IqaCache cache(1 << 20);
  std::vector<float> row = {10.0f, 11.0f, 12.0f, 13.0f};
  cache.Insert(3, 9, row);
  const uint32_t ids[] = {9, 10};
  std::vector<float> out(4, -1.0f);
  uint8_t hit[2] = {7, 7};
  EXPECT_EQ(cache.GatherMany(3, ids, 2, {2, 0}, out.data(), hit), 1u);
  EXPECT_EQ(hit[0], 1);
  EXPECT_EQ(hit[1], 0);
  EXPECT_EQ(out[0], 12.0f);
  EXPECT_EQ(out[1], 10.0f);
  // A miss leaves its block row untouched.
  EXPECT_EQ(out[2], -1.0f);
  EXPECT_EQ(out[3], -1.0f);
  EXPECT_EQ(cache.GatherMany(3, ids, 0, {0}, out.data(), hit), 0u);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

/// Bits of a float, so +0.0f, -0.0f and NaN payloads compare exactly.
uint32_t BitsOf(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Rows are stored without their exact zeros; every read must still return
// the inserted bits, whatever the row length and wherever the zeros fall.
TEST(IqaCacheTest, RowsWithZerosReadBackBitExact) {
  IqaCache cache(1 << 22);
  Rng rng(99);
  const float nan_payload = [] {
    const uint32_t bits = 0x7fc01234u;
    float v = 0.0f;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }();
  for (const size_t n : {1, 2, 63, 64, 65, 127, 128, 130, 1000}) {
    std::vector<float> row(n);
    for (size_t c = 0; c < n; ++c) {
      const uint64_t dice = rng.NextUint64() % 10;
      if (dice < 5) {
        row[c] = 0.0f;
      } else if (dice == 5) {
        row[c] = -0.0f;
      } else if (dice == 6) {
        row[c] = nan_payload;
      } else if (dice == 7) {
        row[c] = 1e-45f;  // denormal
      } else {
        row[c] = static_cast<float>(rng.NextDouble() * 4.0 - 2.0);
      }
    }
    const uint32_t id = static_cast<uint32_t>(n);
    cache.Insert(2, id, row);
    std::vector<float> back;
    ASSERT_TRUE(cache.Lookup(2, id, &back));
    ASSERT_EQ(back.size(), n);
    for (size_t c = 0; c < n; ++c) {
      EXPECT_EQ(BitsOf(back[c]), BitsOf(row[c])) << "n=" << n << " c=" << c;
    }
    std::vector<int64_t> all(n);
    for (size_t c = 0; c < n; ++c) all[c] = static_cast<int64_t>(n - 1 - c);
    std::vector<float> gathered(n);
    uint8_t hit = 0;
    ASSERT_EQ(cache.GatherMany(2, &id, 1, all, gathered.data(), &hit), 1u);
    for (size_t c = 0; c < n; ++c) {
      EXPECT_EQ(BitsOf(gathered[c]), BitsOf(row[n - 1 - c]))
          << "n=" << n << " c=" << c;
    }
  }
  // The budget counts rows at their dense size, zeros or not.
  EXPECT_EQ(cache.size_bytes(),
            (1 + 2 + 63 + 64 + 65 + 127 + 128 + 130 + 1000) * 4 + 9 * 64u);
}

TEST(IqaCacheTest, MruEvictionKeepsOldest) {
  // Rows of 8 floats cost 32 + 64 bookkeeping = 96 bytes; capacity for ~3.
  IqaCache cache(300);
  cache.Insert(0, 1, Row(1.0f));
  cache.Insert(0, 2, Row(2.0f));
  cache.Insert(0, 3, Row(3.0f));
  EXPECT_EQ(cache.entry_count(), 3u);
  // Inserting a 4th must evict the most recently used entry (id 3), keeping
  // the earliest rows — NTA inserts most-similar partitions first, and MRU
  // protects them (section 4.7.3).
  cache.Insert(0, 4, Row(4.0f));
  EXPECT_EQ(cache.entry_count(), 3u);
  EXPECT_TRUE(Contains(&cache, 0, 1));
  EXPECT_TRUE(Contains(&cache, 0, 2));
  EXPECT_FALSE(Contains(&cache, 0, 3));  // evicted
  EXPECT_TRUE(Contains(&cache, 0, 4));
  EXPECT_GE(cache.stats().evictions, 1);
}

TEST(IqaCacheTest, LookupRefreshesRecency) {
  IqaCache cache(300);
  cache.Insert(0, 1, Row(1.0f));
  cache.Insert(0, 2, Row(2.0f));
  cache.Insert(0, 3, Row(3.0f));
  // Touch id 1: it becomes the MRU entry and is the eviction victim.
  Contains(&cache, 0, 1);
  cache.Insert(0, 4, Row(4.0f));
  EXPECT_FALSE(Contains(&cache, 0, 1));
  EXPECT_TRUE(Contains(&cache, 0, 2));
  EXPECT_TRUE(Contains(&cache, 0, 3));
}

TEST(IqaCacheTest, ReinsertRefreshesPayload) {
  IqaCache cache(1 << 20);
  cache.Insert(0, 1, Row(1.0f));
  cache.Insert(0, 1, Row(9.0f));
  EXPECT_EQ(cache.entry_count(), 1u);
  float first = 0.0f;
  ASSERT_TRUE(Contains(&cache, 0, 1, &first));
  EXPECT_EQ(first, 9.0f);
}

TEST(IqaCacheTest, OversizedRowNotCached) {
  IqaCache cache(100);
  cache.Insert(0, 1, Row(1.0f, 1000));  // 4 KB > capacity
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_FALSE(Contains(&cache, 0, 1));
  cache.Insert(0, 2, Row(2.0f, 9));  // 9 * 4 + 64 = the whole capacity
  EXPECT_TRUE(Contains(&cache, 0, 2));
}

TEST(IqaCacheTest, SizeAccounting) {
  IqaCache cache(1 << 20);
  cache.Insert(0, 1, Row(1.0f, 10));
  cache.Insert(0, 2, Row(2.0f, 20));
  EXPECT_EQ(cache.size_bytes(), (10 * 4 + 64) + (20 * 4 + 64));
}

TEST(IqaCacheTest, ClearEmpties) {
  IqaCache cache(1 << 20);
  cache.Insert(0, 1, Row(1.0f));
  cache.Clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
  EXPECT_FALSE(Contains(&cache, 0, 1));
}

/// MRU eviction written out from its definition: entries in recency order
/// (oldest first); a hit or a refresh moves an entry to the newest end; an
/// insert evicts from the newest end until the new row fits. Rows cost
/// payload + 64 bytes.
class ReferenceCache {
 public:
  using Key = std::pair<int, uint32_t>;

  explicit ReferenceCache(uint64_t capacity) : capacity_(capacity) {}

  /// Returns the victims, in eviction order.
  std::vector<Key> Insert(Key key, uint64_t bytes) {
    std::vector<Key> victims;
    if (bytes > capacity_) return victims;
    if (Touch(key)) return victims;  // refresh: same size, no eviction
    while (size_ + bytes > capacity_ && !order_.empty()) {
      const Key victim = order_.back();
      Erase(victim);
      victims.push_back(victim);
      ++evictions_;
    }
    order_.push_back(key);
    bytes_[key] = bytes;
    size_ += bytes;
    return victims;
  }

  /// A lookup: moves a present key to the newest end.
  bool Touch(Key key) {
    auto it = std::find(order_.begin(), order_.end(), key);
    if (it == order_.end()) return false;
    order_.erase(it);
    order_.push_back(key);
    return true;
  }

  void EraseLayer(int layer) {
    const std::vector<Key> keys = order_;
    for (const Key& key : keys) {
      if (key.first == layer) Erase(key);
    }
  }

  void Clear() {
    order_.clear();
    bytes_.clear();
    size_ = 0;
  }

  uint64_t size_bytes() const { return size_; }
  size_t entry_count() const { return order_.size(); }
  int64_t evictions() const { return evictions_; }

 private:
  void Erase(Key key) {
    order_.erase(std::find(order_.begin(), order_.end(), key));
    size_ -= bytes_.at(key);
    bytes_.erase(key);
  }

  uint64_t capacity_;
  std::vector<Key> order_;
  std::map<Key, uint64_t> bytes_;
  uint64_t size_ = 0;
  int64_t evictions_ = 0;
};

/// Row width per layer: layer 0 rows cost 8 * 4 + 64 = 96 bytes, layer 1
/// rows 4 * 4 + 64 = 80 bytes.
size_t RowWidth(int layer) { return layer == 0 ? 8 : 4; }

/// A row whose every value encodes its key, so a gathered value proves
/// which row it came from.
std::vector<float> KeyedRow(int layer, uint32_t id) {
  return std::vector<float>(RowWidth(layer),
                            static_cast<float>(layer * 1000 + id));
}

/// A seeded interleaving of Insert (new and refresh), GatherMany,
/// EraseLayer and Clear, checked op by op against ReferenceCache: every
/// insert's victims are exactly the reference's (each is gone, and the
/// eviction counter moved by their number), every gathered id hits exactly
/// when the reference holds it, and the byte and entry totals agree after
/// every operation.
TEST(IqaCacheTest, MruVictimSequenceMatchesPolicyDefinition) {
  constexpr uint64_t kCapacity = 600;
  IqaCache cache(kCapacity);
  ReferenceCache ref(kCapacity);
  Rng rng(17);
  const std::vector<int64_t> neurons = {3, 0};  // valid for both widths
  int64_t victims_seen = 0;
  for (int step = 0; step < 600; ++step) {
    const uint64_t dice = rng.NextUint64() % 100;
    const int layer = static_cast<int>(rng.NextUint64() % 2);
    if (dice < 55) {
      const uint32_t id = static_cast<uint32_t>(rng.NextUint64() % 24);
      const std::vector<ReferenceCache::Key> victims = ref.Insert(
          {layer, id}, RowWidth(layer) * sizeof(float) + 64);
      cache.Insert(layer, id, KeyedRow(layer, id));
      victims_seen += static_cast<int64_t>(victims.size());
      EXPECT_EQ(cache.stats().evictions, victims_seen) << "step " << step;
      // A victim is absent: a miss, which leaves recency untouched.
      for (const auto& victim : victims) {
        EXPECT_FALSE(cache.Lookup(victim.first, victim.second, nullptr))
            << "step " << step << " victim " << victim.first << "/"
            << victim.second;
      }
    } else if (dice < 92) {
      const size_t n = 1 + rng.NextUint64() % 6;
      std::vector<uint32_t> ids(n);
      for (uint32_t& id : ids) {
        id = static_cast<uint32_t>(rng.NextUint64() % 24);
      }
      std::vector<float> block(n * neurons.size(), -1.0f);
      std::vector<uint8_t> hit(n, 9);
      const size_t hits = cache.GatherMany(layer, ids.data(), n, neurons,
                                           block.data(), hit.data());
      size_t expected_hits = 0;
      for (size_t i = 0; i < n; ++i) {
        const bool present = ref.Touch({layer, ids[i]});
        expected_hits += present ? 1 : 0;
        ASSERT_EQ(hit[i], present ? 1 : 0)
            << "step " << step << " id " << ids[i];
        const float want =
            present ? static_cast<float>(layer * 1000 + ids[i]) : -1.0f;
        EXPECT_EQ(block[i * 2], want) << "step " << step;
        EXPECT_EQ(block[i * 2 + 1], want) << "step " << step;
      }
      EXPECT_EQ(hits, expected_hits) << "step " << step;
    } else if (dice < 98) {
      cache.EraseLayer(layer);
      ref.EraseLayer(layer);
    } else {
      cache.Clear();
      ref.Clear();
    }
    EXPECT_EQ(cache.size_bytes(), ref.size_bytes()) << "step " << step;
    EXPECT_EQ(cache.entry_count(), ref.entry_count()) << "step " << step;
  }
  EXPECT_EQ(ref.evictions(), victims_seen);
  EXPECT_GT(victims_seen, 50);  // the sequence really ran under pressure
}

/// GatherMany's counters are exactly its per-id outcomes.
TEST(IqaCacheTest, GatherManyCountersMatchPerIdOutcomes) {
  IqaCache cache(1 << 20);
  for (uint32_t id = 0; id < 64; id += 2) {
    cache.Insert(0, id, KeyedRow(0, id));
  }
  cache.Insert(1, 1, KeyedRow(1, 1));  // other layer: must not hit layer 0
  Rng rng(1);
  int64_t hits_total = 0;
  int64_t misses_total = 0;
  for (int batch = 0; batch < 50; ++batch) {
    const size_t n = rng.NextUint64() % 40;  // includes empty batches
    std::vector<uint32_t> ids(n);
    for (uint32_t& id : ids) id = static_cast<uint32_t>(rng.NextUint64() % 70);
    std::vector<float> block(n, -1.0f);
    std::vector<uint8_t> hit(n, 9);
    const size_t hits =
        cache.GatherMany(0, ids.data(), n, {5}, block.data(), hit.data());
    size_t expected = 0;
    for (size_t i = 0; i < n; ++i) {
      const bool present = ids[i] < 64 && ids[i] % 2 == 0;
      ASSERT_EQ(hit[i], present ? 1 : 0) << "id " << ids[i];
      EXPECT_EQ(block[i], present ? static_cast<float>(ids[i]) : -1.0f);
      expected += present ? 1 : 0;
    }
    EXPECT_EQ(hits, expected);
    hits_total += static_cast<int64_t>(expected);
    misses_total += static_cast<int64_t>(n - expected);
    const IqaCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, hits_total);
    EXPECT_EQ(stats.misses, misses_total);
  }
  EXPECT_GT(hits_total, 0);
  EXPECT_GT(misses_total, 0);
}

TEST(IqaCacheTest, ConcurrentMixedTrafficIsSafeAndCounted) {
  IqaCache cache(1 << 22);
  constexpr int kThreads = 8;
  constexpr uint32_t kOpsPerThread = 400;
  std::atomic<int64_t> observed_hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &observed_hits, t] {
      std::vector<float> row;
      for (uint32_t i = 0; i < kOpsPerThread; ++i) {
        const uint32_t id = (static_cast<uint32_t>(t) * 131 + i) % 128;
        cache.Insert(0, id, Row(static_cast<float>(id)));
        if (cache.Lookup(0, id, &row)) {
          observed_hits.fetch_add(1);
          // The row read under the lock is always internally
          // consistent: whole-row writes can never be observed torn.
          EXPECT_EQ(row[0], static_cast<float>(id));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const IqaCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, observed_hits.load());
  EXPECT_EQ(stats.hits + stats.misses, int64_t{kThreads} * kOpsPerThread);
}

}  // namespace
}  // namespace core
}  // namespace deepeverest
