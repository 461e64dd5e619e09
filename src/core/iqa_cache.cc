#include "core/iqa_cache.h"

#include <algorithm>

#include "kernels/kernels.h"

namespace deepeverest {
namespace core {
namespace {

// splitmix64: decorrelates the (layer, input) key bits so consecutive input
// ids spread evenly across shards.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Portable SWAR popcount: the baseline x86-64 target has no popcnt
// instruction, and the builtin would be a library call per read.
size_t PopCount(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<size_t>((x * 0x0101010101010101ull) >> 56);
}

}  // namespace

IqaCache::PackedRow::PackedRow(const std::vector<float>& dense)
    : size_(dense.size()),
      present_((dense.size() + 63) / 64),
      before_(present_.size()) {
  const kernels::KernelTable& table = kernels::Active();
  const size_t stored =
      table.nonzero_mask(dense.data(), size_, present_.data());
  uint32_t running = 0;
  for (size_t w = 0; w < present_.size(); ++w) {
    before_[w] = running;
    running += static_cast<uint32_t>(PopCount(present_[w]));
  }
  values_.reset(new float[stored]);
  table.compact(dense.data(), size_, present_.data(), stored, values_.get());
}

void IqaCache::PackedRow::Gather(const std::vector<int64_t>& columns,
                                 float* out) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    const size_t column = static_cast<size_t>(columns[i]);
    const uint64_t word = present_[column / 64];
    const int bit = static_cast<int>(column % 64);
    out[i] = ((word >> bit) & 1) == 0
                 ? 0.0f
                 : values_[before_[column / 64] +
                           PopCount(word & ((uint64_t{1} << bit) - 1))];
  }
}

void IqaCache::PackedRow::Unpack(std::vector<float>* out) const {
  out->assign(size_, 0.0f);
  for (size_t w = 0; w < present_.size(); ++w) {
    size_t next = before_[w];
    for (uint64_t bits = present_[w]; bits != 0; bits &= bits - 1) {
      (*out)[w * 64 + static_cast<size_t>(__builtin_ctzll(bits))] =
          values_[next++];
    }
  }
}

IqaCache::IqaCache(uint64_t capacity_bytes, int num_shards,
                   EvictionPolicy policy)
    : capacity_bytes_(capacity_bytes), policy_(policy) {
  DE_CHECK_GT(num_shards, 0);
  shards_.reserve(static_cast<size_t>(num_shards));
  const uint64_t per_shard =
      std::max<uint64_t>(1, capacity_bytes / static_cast<uint64_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity_bytes = per_shard;
    shards_.push_back(std::move(shard));
  }
}

size_t IqaCache::ShardIndexOf(uint64_t key) const {
  if (shards_.size() == 1) return 0;
  return Mix(key) % shards_.size();
}

void IqaCache::LinkNewest(Shard* shard, Entry* entry) {
  entry->older = shard->newest;
  entry->newer = nullptr;
  if (shard->newest != nullptr) {
    shard->newest->newer = entry;
  } else {
    shard->oldest = entry;
  }
  shard->newest = entry;
}

void IqaCache::Unlink(Shard* shard, Entry* entry) {
  if (entry->older != nullptr) {
    entry->older->newer = entry->newer;
  } else {
    shard->oldest = entry->newer;
  }
  if (entry->newer != nullptr) {
    entry->newer->older = entry->older;
  } else {
    shard->newest = entry->older;
  }
  entry->older = nullptr;
  entry->newer = nullptr;
}

void IqaCache::Touch(Shard* shard, Entry* entry) {
  Unlink(shard, entry);
  LinkNewest(shard, entry);
}

bool IqaCache::Lookup(int layer, uint32_t input_id,
                      std::vector<float>* row_out) {
  const uint64_t key = KeyOf(layer, input_id);
  Shard& shard = *shards_[ShardIndexOf(key)];
  common::MutexLock lock(&shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  Touch(&shard, &it->second);
  if (row_out != nullptr) it->second.row.Unpack(row_out);
  return true;
}

size_t IqaCache::GatherMany(int layer, const uint32_t* ids, size_t n,
                            const std::vector<int64_t>& neurons,
                            float* out_block, uint8_t* hit) {
  const size_t g = neurons.size();
  size_t total_hits = 0;
  // One pass per shard: its lock is taken once, and its ids are visited in
  // the caller's order. Shards only order recency within themselves, so
  // this leaves every list exactly as one-at-a-time lookups would.
  for (size_t s = 0; s < shards_.size(); ++s) {
    size_t first = 0;
    while (first < n && ShardIndexOf(KeyOf(layer, ids[first])) != s) ++first;
    if (first == n) continue;
    Shard& shard = *shards_[s];
    int64_t visited = 0;
    int64_t hits = 0;
    {
      common::MutexLock lock(&shard.mu);
      for (size_t i = first; i < n; ++i) {
        const uint64_t key = KeyOf(layer, ids[i]);
        if (i != first && ShardIndexOf(key) != s) continue;
        ++visited;
        auto it = shard.entries.find(key);
        if (it == shard.entries.end()) {
          hit[i] = 0;
          continue;
        }
        hit[i] = 1;
        ++hits;
        Touch(&shard, &it->second);
        it->second.row.Gather(neurons, out_block + i * g);
      }
    }
    shard.hits.fetch_add(hits, std::memory_order_relaxed);
    shard.misses.fetch_add(visited - hits, std::memory_order_relaxed);
    total_hits += static_cast<size_t>(hits);
  }
  return total_hits;
}

void IqaCache::Insert(int layer, uint32_t input_id,
                      const std::vector<float>& row) {
  const uint64_t bytes = BytesOf(row.size());
  const uint64_t key = KeyOf(layer, input_id);
  Shard& shard = *shards_[ShardIndexOf(key)];
  if (bytes > shard.capacity_bytes) return;  // can never fit
  PackedRow packed(row);  // outside the lock

  common::MutexLock lock(&shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    // Refresh in place.
    shard.size_bytes -= BytesOf(it->second.row.size());
    it->second.row = std::move(packed);
    shard.size_bytes += bytes;
    Touch(&shard, &it->second);
    return;
  }

  // Evict from the policy's end of the recency list until the row fits.
  while (shard.size_bytes + bytes > shard.capacity_bytes &&
         shard.newest != nullptr) {
    Entry* victim =
        policy_ == EvictionPolicy::kMru ? shard.newest : shard.oldest;
    Unlink(&shard, victim);
    shard.size_bytes -= BytesOf(victim->row.size());
    shard.entries.erase(victim->key);
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }

  Entry& entry =
      shard.entries.emplace(key, Entry{std::move(packed), key}).first->second;
  LinkNewest(&shard, &entry);
  shard.size_bytes += bytes;
  shard.insertions.fetch_add(1, std::memory_order_relaxed);
}

void IqaCache::Clear() {
  for (auto& shard : shards_) {
    common::MutexLock lock(&shard->mu);
    shard->entries.clear();
    shard->oldest = nullptr;
    shard->newest = nullptr;
    shard->size_bytes = 0;
  }
}

void IqaCache::EraseLayer(int layer) {
  for (auto& owned : shards_) {
    Shard* shard = owned.get();
    common::MutexLock lock(&shard->mu);
    for (auto it = shard->entries.begin(); it != shard->entries.end();) {
      if (static_cast<int>(it->first >> 32) == layer) {
        Unlink(shard, &it->second);
        shard->size_bytes -= BytesOf(it->second.row.size());
        it = shard->entries.erase(it);
      } else {
        ++it;
      }
    }
  }
}

uint64_t IqaCache::size_bytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    common::MutexLock lock(&shard->mu);
    total += shard->size_bytes;
  }
  return total;
}

size_t IqaCache::entry_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    common::MutexLock lock(&shard->mu);
    total += shard->entries.size();
  }
  return total;
}

IqaCache::Stats IqaCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    total.hits += shard->hits.load(std::memory_order_relaxed);
    total.misses += shard->misses.load(std::memory_order_relaxed);
    total.insertions += shard->insertions.load(std::memory_order_relaxed);
    total.evictions += shard->evictions.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<IqaCache::ShardSnapshot> IqaCache::ShardSnapshots() const {
  std::vector<ShardSnapshot> snapshots;
  snapshots.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardSnapshot snap;
    snap.hits = shard->hits.load(std::memory_order_relaxed);
    snap.misses = shard->misses.load(std::memory_order_relaxed);
    snap.insertions = shard->insertions.load(std::memory_order_relaxed);
    snap.evictions = shard->evictions.load(std::memory_order_relaxed);
    snap.capacity_bytes = shard->capacity_bytes;
    {
      common::MutexLock lock(&shard->mu);
      snap.size_bytes = shard->size_bytes;
      snap.entry_count = shard->entries.size();
    }
    snapshots.push_back(snap);
  }
  return snapshots;
}

}  // namespace core
}  // namespace deepeverest
