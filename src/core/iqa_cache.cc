#include "core/iqa_cache.h"

#include "kernels/kernels.h"

namespace deepeverest {
namespace core {
namespace {

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

IqaCache::IqaCache(uint64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

void IqaCache::LinkNewest(Entry* entry) {
  entry->older = newest_;
  entry->newer = nullptr;
  if (newest_ != nullptr) {
    newest_->newer = entry;
  } else {
    oldest_ = entry;
  }
  newest_ = entry;
}

void IqaCache::Unlink(Entry* entry) {
  if (entry->older != nullptr) {
    entry->older->newer = entry->newer;
  } else {
    oldest_ = entry->newer;
  }
  if (entry->newer != nullptr) {
    entry->newer->older = entry->older;
  } else {
    newest_ = entry->older;
  }
  entry->older = nullptr;
  entry->newer = nullptr;
}

void IqaCache::Touch(Entry* entry) {
  Unlink(entry);
  LinkNewest(entry);
}

bool IqaCache::Lookup(int layer, uint32_t input_id,
                      std::vector<float>* row_out) {
  common::MutexLock lock(&mu_);
  auto it = entries_.find(KeyOf(layer, input_id));
  if (it == entries_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  Touch(&it->second);
  if (row_out != nullptr) it->second.row.Unpack(row_out);
  return true;
}

size_t IqaCache::GatherMany(int layer, const uint32_t* ids, size_t n,
                            const std::vector<int64_t>& neurons,
                            float* out_block, uint8_t* hit) {
  const size_t g = neurons.size();
  size_t hits = 0;
  common::MutexLock lock(&mu_);
  for (size_t i = 0; i < n; ++i) {
    auto it = entries_.find(KeyOf(layer, ids[i]));
    if (it == entries_.end()) {
      hit[i] = 0;
      continue;
    }
    hit[i] = 1;
    ++hits;
    Touch(&it->second);
    it->second.row.Gather(neurons, out_block + i * g);
  }
  hits_ += static_cast<int64_t>(hits);
  misses_ += static_cast<int64_t>(n - hits);
  return hits;
}

void IqaCache::Insert(int layer, uint32_t input_id,
                      const std::vector<float>& row) {
  const uint64_t bytes = BytesOf(row.size());
  if (bytes > capacity_bytes_) return;  // can never fit
  const uint64_t key = KeyOf(layer, input_id);
  PackedRow packed(row);  // outside the lock

  common::MutexLock lock(&mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Refresh in place.
    size_bytes_ -= BytesOf(it->second.row.size());
    it->second.row = std::move(packed);
    size_bytes_ += bytes;
    Touch(&it->second);
    return;
  }

  // Evict from the newest end of the recency list until the row fits.
  while (size_bytes_ + bytes > capacity_bytes_ && newest_ != nullptr) {
    Entry* victim = newest_;
    Unlink(victim);
    size_bytes_ -= BytesOf(victim->row.size());
    entries_.erase(victim->key);
    ++evictions_;
  }

  Entry& entry =
      entries_.emplace(key, Entry{std::move(packed), key}).first->second;
  LinkNewest(&entry);
  size_bytes_ += bytes;
  ++insertions_;
}

void IqaCache::Clear() {
  common::MutexLock lock(&mu_);
  entries_.clear();
  oldest_ = nullptr;
  newest_ = nullptr;
  size_bytes_ = 0;
}

void IqaCache::EraseLayer(int layer) {
  common::MutexLock lock(&mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (static_cast<int>(it->first >> 32) == layer) {
      Unlink(&it->second);
      size_bytes_ -= BytesOf(it->second.row.size());
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

IqaCache::Stats IqaCache::stats() const {
  common::MutexLock lock(&mu_);
  Stats snapshot;
  snapshot.hits = hits_;
  snapshot.misses = misses_;
  snapshot.insertions = insertions_;
  snapshot.evictions = evictions_;
  snapshot.size_bytes = size_bytes_;
  snapshot.capacity_bytes = capacity_bytes_;
  snapshot.entry_count = entries_.size();
  return snapshot;
}

}  // namespace core
}  // namespace deepeverest
