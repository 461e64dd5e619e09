#ifndef DEEPEVEREST_CORE_IQA_CACHE_H_
#define DEEPEVEREST_CORE_IQA_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"

namespace deepeverest {
namespace core {

/// \brief In-memory activation cache for Inter-Query Acceleration (§4.7.3).
///
/// Caches *whole-layer* activation rows — the activations of every neuron in
/// a layer for one input — so a later query against a different neuron group
/// in the same layer can be served without re-running inference.
///
/// Rows are stored without their exact zeros (a presence bitmap plus the
/// remaining values; ReLU layers are about half zeros), losslessly to the
/// bit. The byte budget counts every row at its dense size, payload + 64
/// bytes, so the stored form changes no hit, miss or eviction, and physical
/// memory stays below the budget.
///
/// Recency is an intrusive doubly linked list threaded through the entries
/// (least recently used at the head, most recently used at the tail): a
/// touch is an O(1) splice to the tail and allocates nothing.
///
/// Eviction is **most recently used** (MRU): NTA processes partitions from
/// most- to least-similar, so rows inserted early in a query belong to the
/// most informative inputs; under pressure the cache sheds the latest rows
/// and keeps the early ones.
///
/// The NTA hot path reads through GatherMany: one call per evaluated batch,
/// which takes the lock once and copies the group's columns of every hit
/// straight into the caller's row block.
///
/// Thread-safety: all public methods are safe to call concurrently. One
/// mutex guards the entries, the recency list, the byte count and the
/// counters. Reads copy out under it — no pointers into the cache escape, so
/// concurrent Insert/eviction can never invalidate a reader.
class IqaCache {
 public:
  /// Counters since construction and the current occupancy, read together
  /// under the lock.
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t evictions = 0;
    uint64_t size_bytes = 0;
    uint64_t capacity_bytes = 0;
    size_t entry_count = 0;
  };

  explicit IqaCache(uint64_t capacity_bytes);

  IqaCache(const IqaCache&) = delete;
  IqaCache& operator=(const IqaCache&) = delete;

  /// Looks up (layer, input). On hit, copies the full row into `*row_out`
  /// and counts a hit; returns false (and counts a miss) when absent.
  bool Lookup(int layer, uint32_t input_id, std::vector<float>* row_out);

  /// Batched lookup of (layer, ids[i]) for i in [0, n): on a hit copies the
  /// row's `neurons` columns (flat indices) to out_block[i * g .. i * g + g)
  /// with g = neurons.size() and sets hit[i] = 1; on a miss sets hit[i] = 0
  /// and leaves that block row untouched. Counts one hit or miss per id and
  /// returns the number of hits. Takes the lock once and visits the ids in
  /// the given order, so recency ends exactly as n single lookups in that
  /// order would leave it.
  size_t GatherMany(int layer, const uint32_t* ids, size_t n,
                    const std::vector<int64_t>& neurons, float* out_block,
                    uint8_t* hit);

  /// Inserts a full-layer row, evicting entries if needed. Rows larger than
  /// the capacity are not cached.
  void Insert(int layer, uint32_t input_id, const std::vector<float>& row);

  /// Drops every entry (e.g. when the dataset or model changes).
  void Clear();

  /// Drops every entry of one layer — the invalidation hook for the
  /// rebuild-on-corrupt-index path. (The ingest path never needs it: the
  /// dataset is append-only and rows are keyed by (layer, input), so
  /// existing entries stay valid as the dataset grows.)
  void EraseLayer(int layer);

  uint64_t size_bytes() const { return stats().size_bytes; }
  size_t entry_count() const { return stats().entry_count; }
  Stats stats() const;

 private:
  /// A layer row without its exact zeros: bit c % 64 of present_[c / 64]
  /// says column c is stored, before_[w] counts the stored columns in
  /// words before w, and values_ holds the stored columns in order. Only
  /// +0.0f (all bits clear) is left out, so reads are bit-exact.
  class PackedRow {
   public:
    explicit PackedRow(const std::vector<float>& dense);
    size_t size() const { return size_; }
    /// out[i] = the value of column columns[i].
    void Gather(const std::vector<int64_t>& columns, float* out) const;
    void Unpack(std::vector<float>* out) const;

   private:
    size_t size_ = 0;
    std::vector<uint64_t> present_;
    std::vector<uint32_t> before_;
    std::unique_ptr<float[]> values_;
  };

  /// One cached row, linked into the recency list. Entries live in
  /// unordered_map nodes, whose addresses are stable, so the links are
  /// plain pointers.
  struct Entry {
    PackedRow row;
    uint64_t key = 0;
    Entry* older = nullptr;
    Entry* newer = nullptr;
  };

  static uint64_t KeyOf(int layer, uint32_t input_id) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(layer)) << 32) |
           input_id;
  }
  /// A row's charge against the budget: its dense payload + a bookkeeping
  /// estimate.
  static uint64_t BytesOf(size_t columns) {
    return columns * sizeof(float) + 64;
  }

  /// Recency list maintenance. Touch moves an entry to the newest end.
  void LinkNewest(Entry* entry) REQUIRES(mu_);
  void Unlink(Entry* entry) REQUIRES(mu_);
  void Touch(Entry* entry) REQUIRES(mu_);

  const uint64_t capacity_bytes_;
  mutable common::Mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_ GUARDED_BY(mu_);
  Entry* oldest_ GUARDED_BY(mu_) = nullptr;
  Entry* newest_ GUARDED_BY(mu_) = nullptr;  // the eviction end
  uint64_t size_bytes_ GUARDED_BY(mu_) = 0;
  int64_t hits_ GUARDED_BY(mu_) = 0;
  int64_t misses_ GUARDED_BY(mu_) = 0;
  int64_t insertions_ GUARDED_BY(mu_) = 0;
  int64_t evictions_ GUARDED_BY(mu_) = 0;
};

}  // namespace core
}  // namespace deepeverest

#endif  // DEEPEVEREST_CORE_IQA_CACHE_H_
