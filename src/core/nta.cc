#include "core/nta.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/deepeverest.h"
#include "nn/batch_scheduler.h"

namespace deepeverest {
namespace core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Keeps the k best (input, value) pairs seen so far. For most-similar
/// queries smaller values are better; for highest queries larger are better.
class TopKSet {
 public:
  TopKSet(int k, bool smaller_is_better)
      : k_(static_cast<size_t>(k)), smaller_is_better_(smaller_is_better) {}

  void Offer(uint32_t id, double value) {
    // Total order on (value, id): ties go to the smaller input id. "Ties are
    // broken arbitrarily" in the paper, but a total order makes the kept set
    // independent of arrival order — required for the concurrent query
    // service, where IQA cache state (and hence evaluation order inside a
    // round) varies with scheduling.
    if (entries_.size() == k_ &&
        !BetterEntry(id, value, entries_.back().input_id,
                     entries_.back().value)) {
      return;
    }
    auto it = std::upper_bound(
        entries_.begin(), entries_.end(), ResultEntry{id, value},
        [this](const ResultEntry& a, const ResultEntry& b) {
          return BetterEntry(a.input_id, a.value, b.input_id, b.value);
        });
    entries_.insert(it, ResultEntry{id, value});
    if (entries_.size() > k_) entries_.pop_back();
  }

  bool full() const { return entries_.size() == k_; }
  size_t size() const { return entries_.size(); }

  /// The k-th best value; worst-possible sentinel when not yet full.
  double WorstValue() const {
    if (!full()) return smaller_is_better_ ? kInf : -kInf;
    return entries_.back().value;
  }

  const std::vector<ResultEntry>& entries() const { return entries_; }

  /// Whether value `a` ranks ahead of `b`, or (unless `strict`) level with it.
  bool Beats(double a, double b, bool strict) const {
    return Better(a, b) || (!strict && a == b);
  }

 private:
  bool Better(double a, double b) const {
    return smaller_is_better_ ? a < b : a > b;
  }
  bool BetterEntry(uint32_t id_a, double a, uint32_t id_b, double b) const {
    if (a != b) return Better(a, b);
    return id_a < id_b;
  }

  size_t k_;
  bool smaller_is_better_;
  std::vector<ResultEntry> entries_;  // sorted best-first
};

/// Per-query activation state: every input this query has claimed for
/// evaluation, with its group activations once evaluated. Flat, so a round
/// allocates nothing per input:
///  - `acts_` is an arena of g floats per claimed input, in claim order;
///  - `row_ids_` maps arena row -> input id;
///  - an open-addressing table maps input id -> arena row; it doubles when
///    half full, so it stays sized to the candidates.
/// Rows [0, evaluated) hold activations; rows [evaluated, claimed) are the
/// round's pending batch, in the order the round claimed them. Memory is
/// O(g x candidates) and nothing is sized to the dataset, so a parked
/// execution holds only what it evaluated.
class RunState {
 public:
  explicit RunState(size_t g) : g_(g), slots_(kInitialSlots, kEmptySlot) {}

  /// Adds `id` to the pending batch unless it is already claimed
  /// (evaluated earlier, or queued in this batch).
  void Claim(uint32_t id) {
    size_t slot = SlotOf(id);
    while (slots_[slot] != kEmptySlot) {
      if (static_cast<uint32_t>(slots_[slot]) == id + 1) return;
      slot = (slot + 1) & (slots_.size() - 1);
    }
    const uint32_t row = static_cast<uint32_t>(row_ids_.size());
    slots_[slot] = SlotValue(id, row);
    row_ids_.push_back(id);
    if (row_ids_.size() * 2 > slots_.size()) Grow();
  }

  /// The group activations of an evaluated input.
  const float* Row(uint32_t id) const {
    size_t slot = SlotOf(id);
    while (static_cast<uint32_t>(slots_[slot]) != id + 1) {
      DE_CHECK_NE(slots_[slot], kEmptySlot) << "input " << id << " unknown";
      slot = (slot + 1) & (slots_.size() - 1);
    }
    return acts_.data() + static_cast<size_t>(slots_[slot] >> 32) * g_;
  }

  size_t evaluated() const { return evaluated_; }
  size_t pending() const { return row_ids_.size() - evaluated_; }
  const uint32_t* ids_from(size_t row) const { return row_ids_.data() + row; }
  const float* rows_from(size_t row) const { return acts_.data() + row * g_; }

  /// Sizes the arena for the pending batch and returns its first row, for
  /// EvaluateGroup to fill; MarkEvaluated() then publishes the batch.
  float* PendingBlock() {
    acts_.resize(row_ids_.size() * g_);
    return acts_.data() + evaluated_ * g_;
  }
  void MarkEvaluated() { evaluated_ = row_ids_.size(); }

  int64_t iqa_hits = 0;
  // EvaluateGroup scratch, reused across rounds.
  std::vector<uint8_t> hit;
  std::vector<uint32_t> to_infer;
  std::vector<size_t> infer_rows;

 private:
  static constexpr size_t kInitialSlots = 64;
  static constexpr uint64_t kEmptySlot = 0;

  // Low half id + 1 (so 0 marks an empty slot), high half the arena row.
  static uint64_t SlotValue(uint32_t id, uint32_t row) {
    return (static_cast<uint64_t>(row) << 32) | (static_cast<uint64_t>(id) + 1);
  }
  size_t SlotOf(uint32_t id) const {
    // Fibonacci hashing onto the power-of-two table.
    return static_cast<size_t>((id * 0x9e3779b97f4a7c15ull) >>
                               (64 - shift_bits_));
  }
  void Grow() {
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, kEmptySlot);
    ++shift_bits_;
    for (const uint64_t value : old) {
      if (value == kEmptySlot) continue;
      size_t slot = SlotOf(static_cast<uint32_t>(value) - 1);
      while (slots_[slot] != kEmptySlot) {
        slot = (slot + 1) & (slots_.size() - 1);
      }
      slots_[slot] = value;
    }
  }

  size_t g_;
  std::vector<float> acts_;
  std::vector<uint32_t> row_ids_;
  std::vector<uint64_t> slots_;
  int shift_bits_ = 6;  // log2(slots_.size())
  size_t evaluated_ = 0;
};

/// Per-neuron cursor over the MAI entries, checkpointed between rounds:
/// similarity-ordered for most-similar queries (§4.7.1), rank order
/// (descending activation) for highest queries.
struct MaiCursor {
  size_t gi = 0;                // position within the group
  std::vector<uint32_t> order;  // MAI ranks by |act - s| asc; empty = ranks
  size_t next = 0;
  bool seen_highest = false;  // H_i: consumed the rank-0 (max act) entry
  double min_seen = kInf;
  double max_seen = -kInf;
};

}  // namespace

Status ComputeLayerInContext(nn::InferenceEngine* inference,
                             const std::vector<uint32_t>& ids, int layer,
                             QueryContext* ctx,
                             std::vector<std::vector<float>>* rows) {
  // `batches_share` is this call's fractional share of (possibly shared)
  // device batches straight from the receipt delta, so a span tree shows
  // exactly how much of a cross-query batch this query paid for. The key is
  // `inputs` (not `inputs_run`): only round-level spans carry the
  // `inputs_run` attributes that clients sum against the receipt total.
  SpanScope span(ctx->trace.get(), "compute_layer");
  const nn::InferenceReceipt before = ctx->receipt;
  if (ctx->scheduler != nullptr) {
    DE_RETURN_NOT_OK(ctx->scheduler->ComputeLayer(ids, layer, rows,
                                                  &ctx->receipt, ctx->qos));
  } else {
    DE_RETURN_NOT_OK(inference->ComputeLayer(ids, layer, rows, &ctx->receipt));
  }
  span.AddInt("inputs", static_cast<int64_t>(ids.size()));
  span.AddDouble("batches_share",
                 ctx->receipt.batches_run - before.batches_run);
  span.AddDouble("gpu_seconds", ctx->receipt.simulated_gpu_seconds -
                                    before.simulated_gpu_seconds);
  return Status::OK();
}

namespace {

/// Evaluates the pending batch of `state` (the inputs claimed since the
/// last call, all unknown so far) straight into its arena rows: one batched
/// IQA gather serves the cached rows, and the rest run through the
/// context's scheduler (or the engine directly). Inference cost lands in
/// ctx->receipt, and each inferred full-layer row is cached in the IQA.
Status EvaluateGroup(nn::InferenceEngine* inference, const NeuronGroup& group,
                     QueryContext* ctx, RunState* state) {
  const size_t n = state->pending();
  if (n == 0) return Status::OK();
  const size_t g = group.neurons.size();
  const size_t first = state->evaluated();
  const uint32_t* ids = state->ids_from(first);
  float* block = state->PendingBlock();
  state->hit.assign(n, 0);
  if (ctx->iqa != nullptr) {
    state->iqa_hits += static_cast<int64_t>(ctx->iqa->GatherMany(
        group.layer, ids, n, group.neurons, block, state->hit.data()));
  }
  state->to_infer.clear();
  state->infer_rows.clear();
  for (size_t r = 0; r < n; ++r) {
    if (state->hit[r] != 0) continue;
    state->to_infer.push_back(ids[r]);
    state->infer_rows.push_back(r);
  }
  if (state->to_infer.empty()) {
    state->MarkEvaluated();
    return Status::OK();
  }

  const std::vector<uint32_t>& to_infer = state->to_infer;
  std::vector<std::vector<float>> rows;
  DE_RETURN_NOT_OK(
      ComputeLayerInContext(inference, to_infer, group.layer, ctx, &rows));
  for (size_t r = 0; r < to_infer.size(); ++r) {
    float* dst = block + state->infer_rows[r] * g;
    for (size_t i = 0; i < g; ++i) {
      dst[i] = rows[r][static_cast<size_t>(group.neurons[i])];
    }
    if (ctx->iqa != nullptr) {
      // Cache the full layer row so related queries over *other* neuron
      // groups in this layer also benefit (section 4.7.3).
      ctx->iqa->Insert(group.layer, to_infer[r], rows[r]);
    }
  }
  state->MarkEvaluated();
  return Status::OK();
}

}  // namespace

/// All checkpointed state of one query. Every former loop local of the
/// run-to-completion implementation lives here, so a Step boundary is a
/// complete checkpoint: the resolved group, the pinned index, the candidate
/// set, the threshold inputs (MAI cursors / partition bounds), the round
/// counter, and the IQA/receipt bookkeeping all survive a park and a
/// cross-thread handoff.
///
/// A BeginSpec execution starts by resolving its group and ensuring its
/// layer's index, one Step each; the ensure may answer by fresh scan (§4.6).
/// Otherwise NTA runs: a most-similar query's prologue evaluates the target,
/// then every round runs one skeleton (StepRound): claim candidates,
/// evaluate them in one batch, update the top-k, compute the threshold, test
/// for termination. A phase supplies only where the candidates come from
/// and, with the query kind, which threshold rule bounds the unseen inputs:
///  - kMai: lockstep sweeps over the MAI cursors (§4.7.1), similarity
///    ordered for most-similar queries and in descending activation (TA
///    sorted access) for highest queries;
///  - kPartitions: one partition per neuron per round, in each neuron's
///    partition order (by dPar, eq. 2, for most-similar; highest first for
///    highest).
struct QueryExecution::Impl {
  enum class Phase {
    kResolve,      // derived-group resolution (≤ one inference pass)
    kEnsureIndex,  // incremental index ensure; may answer via fresh scan
    kPrologue,     // most-similar: target evaluation + cursor setup
    kMai,          // MAI cursor rounds
    kPartitions,   // partition rounds (§4.4)
    kDone,
  };

  Impl(QueryContext* ctx_in, bool highest_in, int64_t target_id_in,
       const std::vector<float>& target_acts_in)
      : ctx(ctx_in),
        start_receipt(ctx_in->receipt),
        highest(highest_in),
        target_id(target_id_in),
        target_acts(target_acts_in) {}

  // --- query shape ----------------------------------------------------------
  QueryContext* ctx;
  nn::InferenceReceipt start_receipt;
  bool highest;
  int64_t target_id;               // a dataset input, or -1
  std::vector<float> target_acts;  // set at Begin, or by the prologue
  NeuronGroup group;  // set at Begin, or by the resolve phase
  // BeginSpec only: the system that resolves the group and ensures the
  // index, and the spec it runs.
  DeepEverest* system = nullptr;
  QuerySpec spec;
  // The query's pinned index version (BeginSpec): holding the shared_ptr
  // keeps this exact index alive even if ingest swaps a newer one into the
  // IndexManager mid-query, so every round sees one consistent dataset
  // prefix and the answer is bit-identical to a fresh scan over it.
  LayerIndexPtr index_ref;
  NtaOptions options;  // set at Begin, or by the ensure phase
  // Set by StartNta.
  nn::InferenceEngine* inference = nullptr;
  const LayerIndex* index = nullptr;
  DistancePtr dist;
  size_t g = 0;
  bool use_mai = false;
  uint32_t mai_count = 0;
  int num_partitions = 0;

  // --- checkpointed run state ---------------------------------------------
  Phase phase = Phase::kResolve;
  Status error = Status::OK();
  std::optional<TopKResult> scanned;  // the ensure phase's fresh-scan answer
  int nta_span = -1;  // BeginSpec's "nta" span, open while NTA runs
  RunState state{0};
  size_t offered = 0;  // arena rows [0, offered) were offered to `top`
  TopKSet top{0, false};
  int64_t rounds = 0;
  bool finished = false;  // threshold met or user early stop
  bool terminated_early = false;
  double active_seconds = 0.0;

  // MAI cursors: most-similar only for neurons whose MAI contains the
  // target's activation, highest for every neuron (indexed by position).
  std::vector<MaiCursor> cursors;

  // Partition rounds (§4.4): each neuron's partition order, and for
  // most-similar the seen activation range per neuron.
  std::vector<std::vector<uint32_t>> ord;
  size_t partition_round = 0;  // rounds of `ord` claimed so far
  size_t max_rounds = 0;
  std::vector<double> min_bound;
  std::vector<double> max_bound;
  std::vector<bool> seen_first;
  std::vector<bool> seen_last;

  // Scratch reused across rounds (capacity persists; contents per-round).
  std::vector<std::vector<uint32_t>> round_members;
  std::vector<double> offer_values;
  std::vector<double> per_neuron;

  void EndNtaSpan() {
    if (nta_span >= 0 && ctx->trace != nullptr) ctx->trace->EndSpan(nta_span);
    nta_span = -1;
  }

  // The checks every query passes once its group is known: the group
  // against the model, the target input against the dataset, and the
  // target vector against the group.
  Status ValidateQuery(const nn::InferenceEngine& engine) const {
    DE_RETURN_NOT_OK(ValidateNeuronGroup(engine.model(), group));
    if (target_id >= 0 &&
        static_cast<uint64_t>(target_id) >= engine.dataset().size()) {
      return Status::OutOfRange("target input " + std::to_string(target_id) +
                                " out of range");
    }
    if (!target_acts.empty() && target_acts.size() != group.neurons.size()) {
      return Status::InvalidArgument("target activation count mismatch");
    }
    return Status::OK();
  }

  // Sets up the NTA state for `options` over `index_in` and enters the
  // query's first NTA phase: the prologue for a most-similar query. A highest query needs no
  // prologue: sorted access reads every neuron's MAI first (exact values,
  // descending), then whole partitions, highest first; the MAI already
  // covers partition 0.
  Status StartNta(nn::InferenceEngine* inference_in,
                  const LayerIndex* index_in) {
    const int64_t layer_neurons =
        inference_in->model().NeuronCount(group.layer);
    if (layer_neurons != index_in->num_neurons()) {
      return Status::FailedPrecondition(
          "index neuron count " + std::to_string(index_in->num_neurons()) +
          " does not match layer " + std::to_string(group.layer) + " (" +
          std::to_string(layer_neurons) + " neurons)");
    }
    // The index may lag a live-growing dataset (ingest): it must cover a
    // prefix of the dataset, never more inputs than exist.
    if (index_in->num_inputs() > inference_in->dataset().size()) {
      return Status::FailedPrecondition("index built for a different dataset");
    }
    inference = inference_in;
    index = index_in;
    dist = options.dist != nullptr ? options.dist : L2Distance();
    g = group.neurons.size();
    use_mai = options.use_mai && index->has_mai();
    mai_count = index->mai_count();
    num_partitions = index->num_partitions();
    state = RunState(g);
    top = TopKSet(options.k, /*smaller_is_better=*/!highest);
    round_members.resize(g);
    per_neuron.resize(g);
    if (!highest) {
      phase = Phase::kPrologue;
      return Status::OK();
    }
    ord.assign(g, {});
    for (std::vector<uint32_t>& list : ord) {
      for (int pid = use_mai ? 1 : 0; pid < num_partitions; ++pid) {
        list.push_back(static_cast<uint32_t>(pid));
      }
    }
    if (use_mai) {
      cursors.resize(g);
      for (size_t gi = 0; gi < g; ++gi) cursors[gi].gi = gi;
      phase = Phase::kMai;
    } else {
      EnterPartitions();
    }
    return Status::OK();
  }

  Status Evaluate() { return EvaluateGroup(inference, group, ctx, &state); }

  // Per-round candidate maintenance is a streaming pass: the round's new
  // activations already sit contiguously in the arena, so they are
  // aggregated in place with a single batched virtual call (built-ins: one
  // dispatched SIMD/scalar kernel call) and offered. Each input is offered
  // once: it is claimed, and so evaluated, at most once per query. (The
  // most-similar target row is evaluated by the prologue and never
  // offered.)
  void OfferNewly() {
    const size_t n = state.evaluated() - offered;
    if (n == 0) return;
    offer_values.resize(n);
    const float* rows = state.rows_from(offered);
    if (highest) {
      dist->AggregateValuesMany(rows, g, n, g, offer_values.data());
    } else {
      dist->AggregateAbsDiffMany(rows, g, n, target_acts.data(), g,
                                 offer_values.data());
    }
    const uint32_t* ids = state.ids_from(offered);
    for (size_t r = 0; r < n; ++r) top.Offer(ids[r], offer_values[r]);
    offered = state.evaluated();
  }

  // Eq. 4 (exact) generalised by eq. 6 (θ-approximation): the query is done
  // once the k-th value is at least as good as the θ-relaxed threshold.
  // Tie-complete mode requires a *strict* beat, so inputs tied with the
  // k-th value are all evaluated (canonical-result guarantee). A round that
  // does not finish the query reports its progress instead.
  void CheckTermination(double t) {
    const double kth = top.WorstValue();
    const double bound = highest ? options.theta * t : t / options.theta;
    if (top.full() && top.Beats(kth, bound, options.tie_complete)) {
      finished = true;
      terminated_early = true;
      return;
    }
    if (!ctx->on_progress) return;
    NtaProgress progress;
    progress.round = rounds;
    progress.threshold = t;
    progress.kth_value = kth;
    if (top.full()) {
      progress.theta_guarantee =
          (highest && t <= 0.0) || top.Beats(kth, t, /*strict=*/false)
              ? 1.0
              : std::min(1.0, highest ? kth / t : t / kth);
    }
    for (const ResultEntry& e : top.entries()) {
      if (top.Beats(e.value, t, /*strict=*/false)) {
        progress.confirmed.push_back(e);
      }
    }
    if (!ctx->on_progress(progress)) finished = true;  // user early stop
  }

  // --- candidate sources ----------------------------------------------------

  // Lockstep sweeps: each sweep consumes every cursor's next MAI entry
  // (extending that neuron's seen range), and sweeps continue until the
  // batch of not-yet-computed inputs reaches the batch size. Checking
  // fullness only between sweeps keeps every neuron's boundary current —
  // this reproduces the paper's Figure 4 trace exactly. The batch is the
  // run state's pending rows: Claim() dedups against every input already
  // evaluated or queued.
  void ClaimFromMai() {
    bool any_left = true;
    while (static_cast<int>(state.pending()) < inference->batch_size() &&
           any_left) {
      any_left = false;
      for (MaiCursor& cursor : cursors) {
        if (cursor.next >= mai_count) continue;
        const uint32_t rank = cursor.order.empty()
                                  ? static_cast<uint32_t>(cursor.next)
                                  : cursor.order[cursor.next];
        const MaiEntry& entry =
            index->MaiEntries(group.neurons[cursor.gi])[rank];
        ++cursor.next;
        if (cursor.next < mai_count) any_left = true;
        cursor.min_seen =
            std::min(cursor.min_seen, static_cast<double>(entry.activation));
        cursor.max_seen =
            std::max(cursor.max_seen, static_cast<double>(entry.activation));
        if (rank == 0) cursor.seen_highest = true;
        state.Claim(entry.input_id);
      }
    }
  }

  bool MaiExhausted() const {
    for (const MaiCursor& cursor : cursors) {
      if (cursor.next < mai_count) return false;
    }
    return true;
  }

  // Step 4(a): this round's partition of every neuron; the union of their
  // not-yet-evaluated members becomes the pending batch. Neurons may have
  // different numbers of non-empty partitions (equi-width partitioning of
  // skewed values leaves gaps); a neuron whose order is exhausted simply
  // sits out later rounds.
  void ClaimFromPartitions() {
    const size_t c = partition_round++;
    for (size_t gi = 0; gi < g; ++gi) {
      round_members[gi].clear();
      if (c >= ord[gi].size()) continue;  // neuron exhausted
      index->GetInputIds(group.neurons[gi], ord[gi][c], &round_members[gi]);
      for (uint32_t id : round_members[gi]) state.Claim(id);
    }
  }

  // Enters the partition rounds. Step 3 (most-similar): order each neuron's
  // non-empty partitions by dPar (eq. 2); a highest query's order was fixed
  // at Begin.
  void EnterPartitions() {
    phase = Phase::kPartitions;
    if (!highest) {
      ord.assign(g, {});
      for (size_t gi = 0; gi < g; ++gi) {
        const int64_t neuron = group.neurons[gi];
        const double s = target_acts[gi];
        std::vector<std::pair<double, uint32_t>> keyed;
        keyed.reserve(static_cast<size_t>(num_partitions));
        for (int pid = 0; pid < num_partitions; ++pid) {
          const double lo =
              index->LowerBound(neuron, static_cast<uint32_t>(pid));
          const double hi =
              index->UpperBound(neuron, static_cast<uint32_t>(pid));
          if (lo > hi) continue;  // empty partition
          double d_par = 0.0;
          if (s > hi) {
            d_par = s - hi;
          } else if (s < lo) {
            d_par = lo - s;
          }
          keyed.emplace_back(d_par, static_cast<uint32_t>(pid));
        }
        std::sort(keyed.begin(), keyed.end());
        ord[gi].reserve(keyed.size());
        for (const auto& [d_par, pid] : keyed) ord[gi].push_back(pid);
      }
      min_bound.assign(g, kInf);
      max_bound.assign(g, -kInf);
      seen_first.assign(g, false);
      seen_last.assign(g, false);
    }
    for (const auto& list : ord) max_rounds = std::max(max_rounds, list.size());
  }

  // --- threshold rules ------------------------------------------------------

  // Most-similar over MAI cursors: neurons whose MAI does not contain s
  // contribute 0; participating neurons use min(|minB - s|, H_i * |maxB - s|).
  double MaiSimilarityThreshold() {
    std::fill(per_neuron.begin(), per_neuron.end(), 0.0);
    for (const MaiCursor& cursor : cursors) {
      const double s = target_acts[cursor.gi];
      double md = 0.0;
      if (cursor.min_seen != kInf) {
        const double low = std::abs(cursor.min_seen - s);
        md = cursor.seen_highest
                 ? low
                 : std::min(low, std::abs(cursor.max_seen - s));
      }
      per_neuron[cursor.gi] = md;
    }
    return dist->Aggregate(per_neuron.data(), g);
  }

  // Step 4(c), most-similar over partitions: extend each neuron's contiguous
  // seen range with the round's activations and compute the threshold from
  // the indicator-weighted boundary distances.
  double PartitionSimilarityThreshold() {
    const size_t c = partition_round - 1;
    for (size_t gi = 0; gi < g; ++gi) {
      if (c >= ord[gi].size()) continue;  // neuron exhausted
      for (uint32_t id : round_members[gi]) {
        const double act = state.Row(id)[gi];
        min_bound[gi] = std::min(min_bound[gi], act);
        max_bound[gi] = std::max(max_bound[gi], act);
      }
      if (ord[gi][c] == 0) seen_first[gi] = true;
      if (ord[gi][c] == static_cast<uint32_t>(num_partitions - 1)) {
        seen_last[gi] = true;
      }
    }
    for (size_t gi = 0; gi < g; ++gi) {
      const double s = target_acts[gi];
      const double low = seen_last[gi] ? kInf : std::abs(min_bound[gi] - s);
      const double high = seen_first[gi] ? kInf : std::abs(max_bound[gi] - s);
      per_neuron[gi] = std::min(low, high);
    }
    return dist->Aggregate(per_neuron.data(), g);
  }

  // Highest: the aggregate of every neuron's upper bound on an unseen
  // input's activation (activations assumed non-negative).
  double HighestThreshold() {
    for (size_t gi = 0; gi < g; ++gi) {
      per_neuron[gi] = std::max(UpperOf(gi), 0.0);
    }
    return dist->Aggregate(per_neuron.data(), g);
  }

  // The upper bound on any unseen input's activation for neuron gi: the
  // next unconsumed MAI entry, else the max upper bound over the remaining
  // unprocessed partitions, else 0 (all inputs seen). Taking the max — not
  // the first non-empty partition's bound — keeps the threshold sound even
  // if incremental merges leave the remaining partitions only approximately
  // ordered.
  double UpperOf(size_t gi) const {
    if (!cursors.empty() && cursors[gi].next < mai_count) {
      return index->MaiEntries(group.neurons[gi])[cursors[gi].next].activation;
    }
    double best = 0.0;
    bool found = false;
    for (size_t c = partition_round; c < ord[gi].size(); ++c) {
      const double lo = index->LowerBound(group.neurons[gi], ord[gi][c]);
      const double hi = index->UpperBound(group.neurons[gi], ord[gi][c]);
      if (lo > hi) continue;  // empty
      if (!found || hi > best) best = hi;
      found = true;
    }
    return found ? best : 0.0;
  }

  // --- steps: each runs one unit of work and sets the next phase ----------

  Status StepResolve() {
    group.layer = spec.layer;
    if (spec.has_derived_group()) {
      // Resolution runs under the query's context: metered into its
      // receipt, routed through its batch scheduler, aborted by
      // deadline/cancel.
      const int64_t reference =
          spec.top_of >= 0 ? spec.top_of : spec.target_id;
      SpanScope span(ctx->trace.get(), "resolve_group");
      DE_ASSIGN_OR_RETURN(
          group.neurons,
          system->MaximallyActivatedNeurons(static_cast<uint32_t>(reference),
                                            spec.layer, spec.top_neurons,
                                            ctx));
      span.AddInt("inputs_run",
                  ctx->receipt.inputs_run - start_receipt.inputs_run);
    } else {
      group.neurons = spec.neurons;
    }
    phase = Phase::kEnsureIndex;
    return Status::OK();
  }

  Status StepEnsureIndex() {
    // Validated before the index ensure: the §4.6 fresh-scan path reads
    // activation rows with unchecked indexing.
    DE_RETURN_NOT_OK(ValidateQuery(*system->inference()));
    DE_RETURN_NOT_OK(ctx->CheckRunnable());

    // Per-query receipt metering via the context: any index-build inference
    // is charged to the query that actually performed the build (§4.6
    // trigger); NTA meters its own calls into the same receipt. Unlike a
    // before/after stats() delta, concurrent queries on the shared engine
    // can never leak into these numbers.
    const nn::InferenceReceipt ensure_start = ctx->receipt;
    storage::LayerActivationMatrix fresh;
    {
      SpanScope span(ctx->trace.get(), "index.ensure");
      PreprocessTimings timings;
      DE_ASSIGN_OR_RETURN(index_ref, system->index_manager()->EnsureIndex(
                                         group.layer, &fresh, &timings,
                                         &ctx->receipt));
      span.AddInt("inputs_run",
                  ctx->receipt.inputs_run - ensure_start.inputs_run);
      span.AddInt("built", fresh.num_inputs > 0 ? 1 : 0);
      if (fresh.num_inputs > 0) {
        // Sort & partition vs the snapshot commit that persists it.
        span.AddDouble("index_s", timings.index_seconds);
        span.AddDouble("commit_s", timings.persist_seconds);
      }
    }
    // Pin the dataset version this query answers over. Candidates only ever
    // come from the pinned index, so the result covers exactly the prefix
    // [0, pinned_dataset_version) even while ingest grows the dataset.
    ctx->pinned_dataset_version = index_ref->num_inputs();
    // The build (or the wait on another thread's build) may have consumed
    // the whole deadline budget; abort before scanning or running NTA.
    DE_RETURN_NOT_OK(ctx->CheckRunnable());

    // Answer from the freshly computed matrix when possible (§4.6): the
    // index was just built, which computed every input's activations
    // anyway. A most-similar target ingested after the build started is not
    // covered by `fresh`; fall through to NTA, whose prologue computes the
    // target's activations via inference.
    const bool target_in_fresh =
        target_id < 0 || static_cast<uint64_t>(target_id) < fresh.num_inputs;
    if (fresh.num_inputs > 0 && target_in_fresh) {
      SpanScope span(ctx->trace.get(), "scan");
      DE_ASSIGN_OR_RETURN(scanned, ScanSpec(fresh, group, spec));
      phase = Phase::kDone;
      return Status::OK();
    }

    options.k = spec.k;
    options.theta = spec.theta;
    // Canonical serving mode: tie-complete termination makes the result
    // bit-identical to a fresh activation scan even on exact value ties at
    // the k-th boundary, so every entry point — and every park/resume
    // schedule — returns the same answer.
    options.tie_complete = true;
    DE_ASSIGN_OR_RETURN(options.dist, MakeDistance(spec.distance));

    // The NTA phases span many Steps; keep their span open across them.
    if (ctx->trace != nullptr) nta_span = ctx->trace->StartSpan("nta");
    return StartNta(system->inference(), index_ref.get());
  }

  Status StepPrologue() {
    DE_RETURN_NOT_OK(ctx->CheckRunnable());
    // Step 2: compute the target's activations (one inference pass when the
    // target is a dataset input).
    if (target_id >= 0) {
      SpanScope span(ctx->trace.get(), "nta.target");
      const int64_t inputs_before = ctx->receipt.inputs_run;
      const uint32_t target = static_cast<uint32_t>(target_id);
      state.Claim(target);
      DE_RETURN_NOT_OK(Evaluate());
      span.AddInt("inputs_run", ctx->receipt.inputs_run - inputs_before);
      const float* row = state.Row(target);
      target_acts.assign(row, row + g);
      offered = state.evaluated();  // the target is never a candidate
    }
    // MAI fast path (§4.7.1): build the similarity-ordered cursor of every
    // neuron whose MAI contains the target's activation.
    if (use_mai) {
      for (size_t gi = 0; gi < g; ++gi) {
        const int64_t neuron = group.neurons[gi];
        const float lo = index->LowerBound(neuron, 0);
        const float hi = index->UpperBound(neuron, 0);
        if (lo > hi) continue;               // empty partition 0
        if (target_acts[gi] < lo) continue;  // s not in MAI(i)
        MaiCursor cursor;
        cursor.gi = gi;
        cursor.order.resize(mai_count);
        std::iota(cursor.order.begin(), cursor.order.end(), 0u);
        const MaiEntry* entries = index->MaiEntries(neuron);
        const double s = target_acts[gi];
        std::sort(cursor.order.begin(), cursor.order.end(),
                  [&](uint32_t a, uint32_t b) {
                    const double da = std::abs(entries[a].activation - s);
                    const double db = std::abs(entries[b].activation - s);
                    if (da != db) return da < db;
                    return a < b;
                  });
        cursors.push_back(std::move(cursor));
      }
    }
    if (cursors.empty()) {
      EnterPartitions();
    } else {
      phase = Phase::kMai;
    }
    return Status::OK();
  }

  // One NTA round (Algorithm 1, step 4), whatever the phase.
  Status StepRound() {
    if (phase == Phase::kPartitions && partition_round >= max_rounds) {
      phase = Phase::kDone;  // no partition left to read
      return Status::OK();
    }
    // Cooperative deadline/cancellation check between rounds: an expired
    // context aborts here, within one round of the expiry — and a resumed
    // execution re-validates before doing any work.
    DE_RETURN_NOT_OK(ctx->CheckRunnable());
    SpanScope round_span(ctx->trace.get(), "nta.round");
    const int64_t inputs_before = ctx->receipt.inputs_run;
    const int64_t hits_before = state.iqa_hits;
    if (phase == Phase::kMai) {
      ClaimFromMai();
    } else {
      ClaimFromPartitions();
    }
    // Step 4(b): batched inference for the claimed batch, update top.
    const size_t candidates = state.pending();
    DE_RETURN_NOT_OK(Evaluate());
    OfferNewly();
    ++rounds;
    const double t = highest                 ? HighestThreshold()
                     : phase == Phase::kMai ? MaiSimilarityThreshold()
                                            : PartitionSimilarityThreshold();
    round_span.AddInt("round", rounds);
    round_span.AddInt("candidates", static_cast<int64_t>(candidates));
    round_span.AddInt("inputs_run", ctx->receipt.inputs_run - inputs_before);
    round_span.AddInt("iqa_hits", state.iqa_hits - hits_before);
    round_span.AddDouble("threshold", t);
    CheckTermination(t);
    if (finished ||
        (phase == Phase::kPartitions && partition_round >= max_rounds)) {
      phase = Phase::kDone;
    } else if (phase == Phase::kMai && MaiExhausted()) {
      EnterPartitions();  // fall back to the partition loop
    }
    return Status::OK();
  }
};

QueryExecution::QueryExecution(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

QueryExecution::~QueryExecution() {
  // Abandoned mid-NTA (e.g. service shutdown with a parked query): close
  // the open span so the trace stays well-formed.
  if (impl_ != nullptr) impl_->EndNtaSpan();
}

std::unique_ptr<QueryExecution> QueryExecution::ForSpec(DeepEverest* system,
                                                        const QuerySpec& spec,
                                                        QueryContext* ctx) {
  std::unique_ptr<Impl> impl(
      new Impl(ctx, spec.kind == QuerySpec::Kind::kHighest, spec.target_id,
               spec.target_activations));
  impl->system = system;
  impl->spec = spec;
  return std::unique_ptr<QueryExecution>(new QueryExecution(std::move(impl)));
}

bool QueryExecution::done() const {
  return impl_->phase == Impl::Phase::kDone;
}

Status QueryExecution::Step() {
  Impl& im = *impl_;
  if (im.phase == Impl::Phase::kDone) return im.error;
  ActiveTimeCharge charge(&im.active_seconds);
  Status s = Status::OK();
  switch (im.phase) {
    case Impl::Phase::kResolve:
      s = im.StepResolve();
      break;
    case Impl::Phase::kEnsureIndex:
      s = im.StepEnsureIndex();
      break;
    case Impl::Phase::kPrologue:
      s = im.StepPrologue();
      break;
    case Impl::Phase::kMai:
    case Impl::Phase::kPartitions:
      s = im.StepRound();
      break;
    case Impl::Phase::kDone:
      break;
  }
  if (!s.ok()) {
    // A failed step finishes the execution; TakeResult() reports the error.
    im.error = s;
    im.phase = Impl::Phase::kDone;
  }
  if (im.phase == Impl::Phase::kDone) im.EndNtaSpan();
  return s;
}

Result<TopKResult> QueryExecution::Run() {
  while (!done()) {
    const Status s = Step();
    if (!s.ok()) return s;
  }
  return TakeResult();
}

Result<TopKResult> QueryExecution::TakeResult() {
  Impl& im = *impl_;
  if (im.phase != Impl::Phase::kDone) {
    return Status::FailedPrecondition("query execution is not finished");
  }
  if (!im.error.ok()) return im.error;
  TopKResult result;
  result.entries =
      im.scanned ? std::move(im.scanned->entries) : im.top.entries();
  // This query's exact inference cost: the delta of the context receipt
  // over the whole execution, derived-group resolution and index-build
  // inference included (a per-query context starts at zero, so usually the
  // receipt itself).
  QueryStats& stats = result.stats;
  stats.inputs_run = im.ctx->receipt.inputs_run - im.start_receipt.inputs_run;
  stats.batches_run =
      im.ctx->receipt.batches_run - im.start_receipt.batches_run;
  stats.simulated_gpu_seconds = im.ctx->receipt.simulated_gpu_seconds -
                                im.start_receipt.simulated_gpu_seconds;
  stats.rounds = im.rounds;
  stats.iqa_hits = im.state.iqa_hits;
  stats.terminated_early = im.terminated_early;
  stats.wall_seconds = im.active_seconds;
  stats.dataset_version = im.ctx->pinned_dataset_version;
  return result;
}

Status ValidateNeuronGroup(const nn::Model& model, const NeuronGroup& group) {
  if (group.neurons.empty()) {
    return Status::InvalidArgument("neuron group is empty");
  }
  if (group.layer < 0 || group.layer >= model.num_layers()) {
    return Status::OutOfRange("layer " + std::to_string(group.layer) +
                              " out of range");
  }
  const int64_t layer_neurons = model.NeuronCount(group.layer);
  for (int64_t n : group.neurons) {
    if (n < 0 || n >= layer_neurons) {
      return Status::OutOfRange("neuron " + std::to_string(n) +
                                " out of range for layer " +
                                std::to_string(group.layer));
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<QueryExecution>> NtaEngine::Begin(
    const NeuronGroup& group, QuerySpec::Kind kind, int64_t target_id,
    const std::vector<float>& target_acts, const NtaOptions& options,
    QueryContext* ctx) {
  const bool highest = kind == QuerySpec::Kind::kHighest;
  if (highest ? target_id >= 0 || !target_acts.empty()
              : (target_id >= 0) == !target_acts.empty()) {
    return Status::InvalidArgument(
        "a highest query takes no target, a most-similar query exactly one");
  }
  if (options.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (!(options.theta > 0.0) || options.theta > 1.0) {
    return Status::InvalidArgument("theta must be in (0, 1]");
  }
  if (ctx == nullptr) {
    return Status::InvalidArgument(
        "a QueryContext is required to begin an execution");
  }
  std::unique_ptr<QueryExecution::Impl> impl(
      new QueryExecution::Impl(ctx, highest, target_id, target_acts));
  impl->group = group;
  impl->options = options;
  DE_RETURN_NOT_OK(impl->ValidateQuery(*inference_));
  DE_RETURN_NOT_OK(impl->StartNta(inference_, index_));
  return std::unique_ptr<QueryExecution>(new QueryExecution(std::move(impl)));
}

// ---------------------------------------------------------------------------
// Fresh scan
// ---------------------------------------------------------------------------

namespace {

/// Rows the scans feed the batched distance calls per block:
/// large enough to amortise the virtual + kernel dispatch, small enough to
/// stay cache-resident alongside the gather source.
constexpr size_t kScanBlockRows = 256;

/// Streams the rows of `matrix` not `skip`ped in blocks: gathers the group's
/// columns into a contiguous scratch block, runs one batched `aggregate`
/// call per block, and offers every result. The fresh scan runs through the
/// same dispatched kernels as NTA, which is what keeps the §4.6 bit-equality
/// invariant per dispatch mode.
template <typename SkipFn, typename AggregateFn>
void ScanBlocked(const storage::LayerActivationMatrix& matrix,
                 const std::vector<int64_t>& neurons, SkipFn skip,
                 AggregateFn aggregate, TopKSet* top) {
  const uint32_t num_inputs = matrix.num_inputs;
  const size_t g = neurons.size();
  std::vector<float> block(kScanBlockRows * g);
  std::vector<double> results(kScanBlockRows);
  std::vector<uint32_t> ids;
  ids.reserve(kScanBlockRows);
  uint32_t id = 0;
  while (id < num_inputs) {
    ids.clear();
    size_t r = 0;
    for (; id < num_inputs && r < kScanBlockRows; ++id) {
      if (skip(id)) continue;
      const float* row = matrix.Row(id);
      for (size_t i = 0; i < g; ++i) {
        block[r * g + i] = row[static_cast<size_t>(neurons[i])];
      }
      ids.push_back(id);
      ++r;
    }
    aggregate(block.data(), r, results.data());
    for (size_t j = 0; j < r; ++j) top->Offer(ids[j], results[j]);
  }
}

}  // namespace

TopKResult ScanMostSimilar(const storage::LayerActivationMatrix& matrix,
                           const std::vector<int64_t>& neurons,
                           const std::vector<float>& target_acts, int k,
                           const DistancePtr& dist, bool exclude_target,
                           uint32_t target_id) {
  TopKSet top(k, /*smaller_is_better=*/true);
  const size_t g = neurons.size();
  ScanBlocked(
      matrix, neurons,
      [&](uint32_t id) { return exclude_target && id == target_id; },
      [&](const float* block, size_t rows, double* out) {
        dist->AggregateAbsDiffMany(block, g, rows, target_acts.data(), g, out);
      },
      &top);
  TopKResult result;
  result.entries = top.entries();
  return result;
}

TopKResult ScanHighest(const storage::LayerActivationMatrix& matrix,
                       const std::vector<int64_t>& neurons, int k,
                       const DistancePtr& dist) {
  TopKSet top(k, /*smaller_is_better=*/false);
  const size_t g = neurons.size();
  ScanBlocked(
      matrix, neurons,
      [](uint32_t) { return false; },
      [&](const float* block, size_t rows, double* out) {
        dist->AggregateValuesMany(block, g, rows, g, out);
      },
      &top);
  TopKResult result;
  result.entries = top.entries();
  return result;
}

Result<TopKResult> ScanSpec(const storage::LayerActivationMatrix& matrix,
                            const NeuronGroup& group, const QuerySpec& spec) {
  for (const int64_t n : group.neurons) {
    if (n < 0 || static_cast<uint64_t>(n) >= matrix.num_neurons) {
      return Status::OutOfRange("neuron " + std::to_string(n) +
                                " out of range for layer " +
                                std::to_string(group.layer));
    }
  }
  DE_ASSIGN_OR_RETURN(const DistancePtr dist, MakeDistance(spec.distance));
  if (spec.kind == QuerySpec::Kind::kHighest) {
    return ScanHighest(matrix, group.neurons, spec.k, dist);
  }
  if (spec.target_id < 0) {
    if (spec.target_activations.size() != group.neurons.size()) {
      return Status::InvalidArgument("target activation count mismatch");
    }
    return ScanMostSimilar(matrix, group.neurons, spec.target_activations,
                           spec.k, dist, /*exclude_target=*/false, 0);
  }
  if (static_cast<uint64_t>(spec.target_id) >= matrix.num_inputs) {
    return Status::OutOfRange("target input " +
                              std::to_string(spec.target_id) +
                              " out of range");
  }
  const uint32_t target_id = static_cast<uint32_t>(spec.target_id);
  std::vector<float> target_acts(group.neurons.size());
  for (size_t i = 0; i < group.neurons.size(); ++i) {
    target_acts[i] =
        matrix.At(target_id, static_cast<uint64_t>(group.neurons[i]));
  }
  return ScanMostSimilar(matrix, group.neurons, target_acts, spec.k, dist,
                         /*exclude_target=*/true, target_id);
}

}  // namespace core
}  // namespace deepeverest
