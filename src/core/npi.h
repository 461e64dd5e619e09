#ifndef DEEPEVEREST_CORE_NPI_H_
#define DEEPEVEREST_CORE_NPI_H_

#include <cstdint>
#include <vector>

#include "common/bit_pack.h"
#include "common/result.h"
#include "common/serde.h"
#include "storage/activation_store.h"

namespace deepeverest {
namespace core {

/// \brief How a neuron's activation range is split into partitions.
enum class PartitionScheme {
  /// Equal input counts per partition (DeepEverest's choice, §4.3: adapts
  /// to the heavy skew of activation distributions).
  kEquiDepth,
  /// Equal activation-value ranges per partition. Implemented for the
  /// ablation benchmark that validates the paper's equi-depth choice; skewed
  /// distributions concentrate most inputs into a few partitions, which
  /// destroys NTA's pruning.
  kEquiWidth,
};

/// \brief Per-layer index configuration.
struct LayerIndexConfig {
  /// Total number of partitions per neuron (including partition 0). Powers
  /// of two use the bit-packed PID lanes fully (paper §4.7.2).
  int num_partitions = 16;
  /// Fraction of inputs whose (activation, inputID) pairs are materialised
  /// in the Maximum Activation Index; they become partition 0 (§4.7.1).
  /// 0 disables MAI. Requires kEquiDepth.
  double mai_ratio = 0.0;
  PartitionScheme scheme = PartitionScheme::kEquiDepth;
};

/// \brief One Maximum Activation Index entry.
struct MaiEntry {
  float activation = 0.0f;
  uint32_t input_id = 0;
};

/// \brief Neural Partition Index + Maximum Activation Index for one layer.
///
/// For every neuron the inputs are range-partitioned by activation value
/// into equi-depth partitions; partition 0 holds the largest activations.
/// Physically this is one bit-packed PID per (neuron, input) —
/// ceil(log2(nPartitions)) bits — plus float32 lower/upper bounds per
/// (neuron, partition), plus (optionally) the MAI: the top `mai_ratio`
/// fraction of (activation, inputID) pairs per neuron, which then *is*
/// partition 0. See paper sections 4.3 and 4.7.1.
///
/// Immutable once built; safe to share across concurrent queries.
class LayerIndex {
 public:
  /// Builds the index from a fully materialised activation matrix.
  /// Clamps num_partitions so no non-MAI partition is empty.
  static Result<LayerIndex> Build(const storage::LayerActivationMatrix& acts,
                                  const LayerIndexConfig& config);

  /// Incremental insert (paper §4.6 extended to a growing dataset): returns a
  /// NEW index covering the original inputs plus `delta`, whose rows are the
  /// activations of input ids [num_inputs, num_inputs + delta.num_inputs).
  /// The original index is unchanged, so in-flight queries pinned to it stay
  /// consistent. New inputs that beat a neuron's MAI minimum displace it
  /// (the evicted entry is re-housed in a regular partition); all others are
  /// routed to the containing partition, or the nearest one with its bound
  /// extended. Partitions stay disjoint and ordered by activation descending
  /// — the invariants NTA's threshold math relies on — though they are no
  /// longer exactly equi-depth (a performance, not correctness, property).
  Result<LayerIndex> AppendInputs(
      const storage::LayerActivationMatrix& delta) const;

  LayerIndex(LayerIndex&&) = default;
  LayerIndex& operator=(LayerIndex&&) = default;
  LayerIndex(const LayerIndex&) = delete;
  LayerIndex& operator=(const LayerIndex&) = delete;

  uint32_t num_inputs() const { return num_inputs_; }
  int64_t num_neurons() const { return num_neurons_; }
  int num_partitions() const { return num_partitions_; }
  /// Number of MAI entries per neuron (0 when MAI is disabled).
  uint32_t mai_count() const { return mai_count_; }
  bool has_mai() const { return mai_count_ > 0; }

  /// getPID(neuronID, inputID) from the paper.
  uint32_t GetPid(int64_t neuron, uint32_t input_id) const {
    return static_cast<uint32_t>(
        pids_.Get(static_cast<size_t>(neuron) * num_inputs_ + input_id));
  }

  /// getInputIDs(neuronID, PID): appends the partition's members to `out`
  /// in ascending id order. One fused select pass over the neuron's packed
  /// PID row (O(nInputs)); no PID is unpacked into a buffer.
  void GetInputIds(int64_t neuron, uint32_t pid,
                   std::vector<uint32_t>* out) const;

  /// lBnd / uBnd from the paper. For an empty partition the bounds are
  /// (+inf, -inf) so distance math naturally ignores it.
  float LowerBound(int64_t neuron, uint32_t pid) const {
    return lower_[BoundIndex(neuron, pid)];
  }
  float UpperBound(int64_t neuron, uint32_t pid) const {
    return upper_[BoundIndex(neuron, pid)];
  }

  /// Partition that a given activation value falls into for `neuron`
  /// (supports targets outside the indexed dataset). Returns the partition
  /// whose [lBnd, uBnd] range contains `activation`, or the nearest one if
  /// it falls in a gap.
  uint32_t PidForActivation(int64_t neuron, float activation) const;

  /// MAI entries of `neuron`, sorted by activation descending. Empty span
  /// when MAI is disabled.
  const MaiEntry* MaiEntries(int64_t neuron) const {
    return mai_.data() + static_cast<size_t>(neuron) * mai_count_;
  }

  /// Paper's analytic storage formula (§4.3, §4.7.2): PID bits + bounds +
  /// MAI pairs at 8 bytes each. Used for accounting and config selection.
  uint64_t AnalyticStorageBytes() const;
  static uint64_t AnalyticStorageBytes(int64_t num_neurons,
                                       uint32_t num_inputs, int num_partitions,
                                       uint32_t mai_count);

  void Serialize(BinaryWriter* writer) const;
  static Result<LayerIndex> Deserialize(BinaryReader* reader);

 private:
  LayerIndex() = default;

  static Result<LayerIndex> BuildEquiWidth(
      const storage::LayerActivationMatrix& acts,
      const LayerIndexConfig& config);

  /// Assigns `activation` to a partition in [start_pid, num_partitions),
  /// extending the nearest partition's bound when the value falls in a gap
  /// (mutates bounds; used only while constructing a merged index).
  uint32_t AssignPidExtending(int64_t neuron, float activation, int start_pid);

  size_t BoundIndex(int64_t neuron, uint32_t pid) const {
    DE_CHECK_LT(static_cast<int>(pid), num_partitions_);
    return static_cast<size_t>(neuron) * num_partitions_ + pid;
  }

  uint32_t num_inputs_ = 0;
  int64_t num_neurons_ = 0;
  int num_partitions_ = 0;
  uint32_t mai_count_ = 0;
  PackedIntArray pids_;        // (neuron, input) -> PID
  std::vector<float> lower_;   // (neuron, pid) -> lBnd
  std::vector<float> upper_;   // (neuron, pid) -> uBnd
  std::vector<MaiEntry> mai_;  // (neuron, rank) -> entry, rank by act desc
};

}  // namespace core
}  // namespace deepeverest

#endif  // DEEPEVEREST_CORE_NPI_H_
