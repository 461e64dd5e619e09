#include "core/nta.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/stopwatch.h"
#include "common/trace.h"
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

Status ValidateOptions(const NtaOptions& options) {
  if (options.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (!(options.theta > 0.0) || options.theta > 1.0) {
    return Status::InvalidArgument("theta must be in (0, 1]");
  }
  return Status::OK();
}

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

/// Per-neuron cursor over the similarity-ordered MAI entries (§4.7.1),
/// checkpointed between rounds.
struct MaiCursor {
  size_t gi = 0;                // position within the group
  std::vector<uint32_t> order;  // MAI ranks sorted by |act - s| asc
  size_t next = 0;
  bool seen_highest = false;  // H_i: consumed the rank-0 (max act) entry
  double min_seen = kInf;
  double max_seen = -kInf;
};

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
  {
    // `batches_share` is this call's fractional share of (possibly shared)
    // device batches straight from the receipt delta, so a span tree shows
    // exactly how much of a cross-query batch this query paid for. The key
    // is `inputs` (not `inputs_run`): only round-level spans carry the
    // `inputs_run` attributes that clients sum against the receipt total.
    SpanScope span(ctx->trace.get(), "compute_layer");
    const nn::InferenceReceipt before = ctx->receipt;
    if (ctx->scheduler != nullptr) {
      DE_RETURN_NOT_OK(ctx->scheduler->ComputeLayer(to_infer, group.layer,
                                                    &rows, &ctx->receipt,
                                                    ctx->qos));
    } else {
      DE_RETURN_NOT_OK(inference->ComputeLayer(to_infer, group.layer, &rows,
                                               &ctx->receipt));
    }
    span.AddInt("inputs", static_cast<int64_t>(to_infer.size()));
    span.AddDouble("batches_share",
                   ctx->receipt.batches_run - before.batches_run);
    span.AddDouble(
        "gpu_seconds",
        ctx->receipt.simulated_gpu_seconds - before.simulated_gpu_seconds);
  }
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

/// Charges a Step's wall time to the execution's active-time accumulator on
/// every exit path, so `wall_seconds` covers exactly the time spent
/// stepping — parked intervals between Step calls cost the query nothing.
class ActiveTimeCharge {
 public:
  explicit ActiveTimeCharge(double* acc) : acc_(acc) {}
  ~ActiveTimeCharge() { *acc_ += watch_.ElapsedSeconds(); }
  ActiveTimeCharge(const ActiveTimeCharge&) = delete;
  ActiveTimeCharge& operator=(const ActiveTimeCharge&) = delete;

 private:
  Stopwatch watch_;
  double* acc_;
};

}  // namespace

/// All checkpointed state of one NTA query. Every former loop local of the
/// run-to-completion implementation lives here, so a Step boundary is a
/// complete checkpoint: the candidate set, the threshold inputs (MAI
/// cursors / partition bounds), the round counter, and the IQA/receipt
/// bookkeeping all survive a park and a cross-thread handoff.
struct NtaExecution::Impl {
  enum class Phase {
    kPrologue,          // most-similar: target evaluation + cursor setup
    kMaiRound,          // most-similar MAI fast-path round (§4.7.1)
    kPartitionRound,    // most-similar partition round (§4.4)
    kHighestMaiRound,   // highest phase A round: lockstep MAI descent
    kHighestPartition,  // highest phase B round: one whole partition
    kDone,
  };

  Impl(nn::InferenceEngine* inference_in, const LayerIndex* index_in,
       QueryContext* ctx_in, const NeuronGroup& group_in,
       const NtaOptions& options_in, bool is_highest)
      : inference(inference_in),
        index(index_in),
        ctx(ctx_in),
        group(group_in),
        options(options_in),
        dist(options_in.dist != nullptr ? options_in.dist : L2Distance()),
        g(group_in.neurons.size()),
        start_receipt(ctx_in->receipt),
        num_partitions(index_in->num_partitions()),
        state(g),
        top(options_in.k, /*smaller_is_better=*/!is_highest),
        uppers(g) {}

  // --- immutable query shape ----------------------------------------------
  nn::InferenceEngine* inference;
  const LayerIndex* index;
  QueryContext* ctx;
  NeuronGroup group;
  NtaOptions options;
  DistancePtr dist;
  size_t g;
  nn::InferenceReceipt start_receipt;
  int num_partitions;
  bool has_target_id = false;
  uint32_t target_id = 0;
  std::vector<float> target_acts;  // set at Begin, or by the prologue

  // --- checkpointed run state ---------------------------------------------
  Phase phase = Phase::kPrologue;
  Status error = Status::OK();
  RunState state;
  size_t offered = 0;  // arena rows [0, offered) were offered to `top`
  TopKSet top;
  int64_t rounds = 0;
  bool finished = false;  // threshold met or user early stop
  bool terminated_early = false;
  double last_threshold = 0.0;
  double active_seconds = 0.0;

  // Most-similar MAI fast path (§4.7.1).
  std::vector<MaiCursor> cursors;

  // Most-similar partition loop (§4.4), built lazily on phase entry.
  bool partitions_ready = false;
  std::vector<std::vector<uint32_t>> ord;
  std::vector<double> min_bound;
  std::vector<double> max_bound;
  std::vector<bool> seen_first;
  std::vector<bool> seen_last;
  std::vector<std::vector<uint32_t>> round_members;
  size_t partition_round = 0;
  size_t max_rounds = 0;

  // Highest cursors: phase A sorted-access position per neuron, phase B's
  // next whole partition.
  bool use_mai = false;
  uint32_t mai_count = 0;
  std::vector<size_t> mai_next;
  std::vector<int> next_partition;
  int next_pid = 0;

  // Scratch reused across rounds (capacity persists; contents per-round).
  std::vector<double> min_dists;
  std::vector<double> offer_values;
  std::vector<double> uppers;
  std::vector<uint32_t> members;

  Status Evaluate() { return EvaluateGroup(inference, group, ctx, &state); }

  // Per-round candidate maintenance is a streaming pass: the round's new
  // activations already sit contiguously in the arena, so they are
  // aggregated in place with a single batched virtual call (built-ins: one
  // dispatched SIMD/scalar kernel call) and offered. Each input is offered
  // once: it is claimed, and so evaluated, at most once per query. (The
  // most-similar target row is evaluated by the prologue and never
  // offered.)
  template <typename AggregateFn>
  void OfferNewly(AggregateFn aggregate) {
    const size_t n = state.evaluated() - offered;
    if (n == 0) return;
    offer_values.resize(n);
    aggregate(state.rows_from(offered), n, offer_values.data());
    const uint32_t* ids = state.ids_from(offered);
    for (size_t r = 0; r < n; ++r) top.Offer(ids[r], offer_values[r]);
    offered = state.evaluated();
  }

  void OfferNewlyMostSimilar() {
    OfferNewly([this](const float* rows, size_t n, double* out) {
      dist->AggregateAbsDiffMany(rows, g, n, target_acts.data(), g, out);
    });
  }

  void OfferNewlyHighest() {
    OfferNewly([this](const float* rows, size_t n, double* out) {
      dist->AggregateValuesMany(rows, g, n, g, out);
    });
  }

  void EmitProgress(double threshold) {
    last_threshold = threshold;
    if (finished || !ctx->on_progress) return;
    NtaProgress progress;
    progress.round = rounds;
    progress.threshold = threshold;
    progress.kth_value = top.WorstValue();
    if (top.full()) {
      progress.theta_guarantee =
          top.WorstValue() <= threshold
              ? 1.0
              : std::min(1.0, threshold / top.WorstValue());
    }
    for (const ResultEntry& e : top.entries()) {
      if (e.value <= threshold) progress.confirmed.push_back(e);
    }
    if (!ctx->on_progress(progress)) finished = true;  // user early stop
  }

  void CheckTermination(double threshold) {
    // Eq. 4 (exact) generalised by eq. 6 (θ-approximation). Tie-complete
    // mode requires a *strict* beat, so inputs tied with the k-th value are
    // all evaluated (canonical-result guarantee).
    if (!top.full()) return;
    const double bound = threshold / options.theta;
    const bool met = options.tie_complete ? top.WorstValue() < bound
                                          : top.WorstValue() <= bound;
    if (met) {
      finished = true;
      terminated_early = true;
    }
  }

  // The upper bound on any unseen input's activation for neuron gi: the
  // next unconsumed MAI entry, else the max upper bound over the remaining
  // unprocessed partitions, else 0 (all inputs seen; activations assumed
  // non-negative). Taking the max — not the first non-empty partition's
  // bound — keeps the threshold sound even if incremental merges leave the
  // remaining partitions only approximately ordered.
  double UpperOf(size_t gi) const {
    if (use_mai && mai_next[gi] < mai_count) {
      return index->MaiEntries(group.neurons[gi])[mai_next[gi]].activation;
    }
    double best = 0.0;
    bool found = false;
    for (int pid = next_partition[gi]; pid < num_partitions; ++pid) {
      const double lo =
          index->LowerBound(group.neurons[gi], static_cast<uint32_t>(pid));
      const double hi =
          index->UpperBound(group.neurons[gi], static_cast<uint32_t>(pid));
      if (lo > hi) continue;  // empty
      if (!found || hi > best) best = hi;
      found = true;
    }
    return found ? best : 0.0;
  }

  void CheckAndProgressHighest() {
    for (size_t gi = 0; gi < g; ++gi) uppers[gi] = std::max(UpperOf(gi), 0.0);
    const double threshold = dist->Aggregate(uppers.data(), g);
    last_threshold = threshold;
    // Tie-complete mode requires a strict beat (see CheckTermination).
    const double bound = options.theta * threshold;
    const bool met = options.tie_complete ? top.WorstValue() > bound
                                          : top.WorstValue() >= bound;
    if (top.full() && met) {
      finished = true;
      terminated_early = true;
      return;
    }
    if (ctx->on_progress) {
      NtaProgress progress;
      progress.round = rounds;
      progress.threshold = threshold;
      progress.kth_value = top.WorstValue();
      if (top.full() && threshold > 0.0) {
        progress.theta_guarantee =
            std::min(1.0, top.WorstValue() / threshold);
      } else if (top.full()) {
        progress.theta_guarantee = 1.0;
      }
      for (const ResultEntry& e : top.entries()) {
        if (e.value >= progress.threshold) progress.confirmed.push_back(e);
      }
      if (!ctx->on_progress(progress)) finished = true;
    }
  }

  // --- step bodies: each runs one unit of work and sets the next phase ----

  Status StepPrologue() {
    DE_RETURN_NOT_OK(ctx->CheckRunnable());
    // Step 2: compute the target's activations (one inference pass when the
    // target is a dataset input).
    if (has_target_id) {
      SpanScope span(ctx->trace.get(), "nta.target");
      const int64_t inputs_before = ctx->receipt.inputs_run;
      state.Claim(target_id);
      DE_RETURN_NOT_OK(Evaluate());
      span.AddInt("inputs_run", ctx->receipt.inputs_run - inputs_before);
      const float* row = state.Row(target_id);
      target_acts.assign(row, row + g);
      offered = state.evaluated();  // the target is never a candidate
    }
    // MAI fast path (§4.7.1): build the similarity-ordered cursor of every
    // neuron whose MAI contains the target's activation.
    if (options.use_mai && index->has_mai()) {
      const uint32_t count = index->mai_count();
      for (size_t gi = 0; gi < g; ++gi) {
        const int64_t neuron = group.neurons[gi];
        const float lo = index->LowerBound(neuron, 0);
        const float hi = index->UpperBound(neuron, 0);
        if (lo > hi) continue;               // empty partition 0
        if (target_acts[gi] < lo) continue;  // s not in MAI(i)
        MaiCursor cursor;
        cursor.gi = gi;
        cursor.order.resize(count);
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
    min_dists.assign(g, 0.0);
    phase = cursors.empty() ? Phase::kPartitionRound : Phase::kMaiRound;
    return Status::OK();
  }

  Status StepMaiRound() {
    // Cooperative deadline/cancellation check between rounds: an expired
    // context aborts here, within one round of the expiry — and a resumed
    // execution re-validates before doing any work.
    DE_RETURN_NOT_OK(ctx->CheckRunnable());
    SpanScope round_span(ctx->trace.get(), "nta.round");
    const int64_t inputs_before = ctx->receipt.inputs_run;
    const int64_t hits_before = state.iqa_hits;
    // Build a global toRun set by advancing every participating
    // neuron's similarity-ordered cursor in lockstep sweeps: each sweep
    // consumes the next most similar MAI entry per neuron (extending
    // that neuron's own seen range), and sweeps continue until the
    // batch of not-yet-computed inputs reaches the batch size. Checking
    // fullness only between sweeps keeps every neuron's boundary
    // current — this reproduces the paper's Figure 4 trace exactly. The
    // batch is the run state's pending rows: Claim() dedups against every
    // input already evaluated or queued.
    bool any_left = true;
    while (static_cast<int>(state.pending()) < inference->batch_size() &&
           any_left) {
      any_left = false;
      for (MaiCursor& cursor : cursors) {
        if (cursor.next >= cursor.order.size()) continue;
        const MaiEntry* entries = index->MaiEntries(group.neurons[cursor.gi]);
        const uint32_t rank = cursor.order[cursor.next];
        const MaiEntry& entry = entries[rank];
        ++cursor.next;
        if (cursor.next < cursor.order.size()) any_left = true;
        cursor.min_seen =
            std::min(cursor.min_seen, static_cast<double>(entry.activation));
        cursor.max_seen =
            std::max(cursor.max_seen, static_cast<double>(entry.activation));
        if (rank == 0) cursor.seen_highest = true;
        state.Claim(entry.input_id);
      }
    }

    const bool exhausted = [&] {
      for (const MaiCursor& cursor : cursors) {
        if (cursor.next < cursor.order.size()) return false;
      }
      return true;
    }();

    const size_t candidates = state.pending();
    DE_RETURN_NOT_OK(Evaluate());
    OfferNewlyMostSimilar();
    ++rounds;

    // Threshold: neurons whose MAI does not contain s contribute 0;
    // participating neurons use min(|minB - s|, H_i * |maxB - s|).
    std::fill(min_dists.begin(), min_dists.end(), 0.0);
    for (const MaiCursor& cursor : cursors) {
      const double s = target_acts[cursor.gi];
      double md = 0.0;
      if (cursor.min_seen != kInf) {
        const double low = std::abs(cursor.min_seen - s);
        md = cursor.seen_highest
                 ? low
                 : std::min(low, std::abs(cursor.max_seen - s));
      }
      min_dists[cursor.gi] = md;
    }
    const double t = dist->Aggregate(min_dists.data(), g);
    round_span.AddInt("round", rounds);
    round_span.AddInt("candidates", static_cast<int64_t>(candidates));
    round_span.AddInt("inputs_run", ctx->receipt.inputs_run - inputs_before);
    round_span.AddInt("iqa_hits", state.iqa_hits - hits_before);
    round_span.AddDouble("threshold", t);
    CheckTermination(t);
    EmitProgress(t);
    if (finished) {
      phase = Phase::kDone;
    } else if (exhausted) {
      phase = Phase::kPartitionRound;  // fall back to the partition loop
    }
    return Status::OK();
  }

  void InitPartitions() {
    partitions_ready = true;
    // Step 3: order each neuron's partitions by dPar (eq. 2).
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
    round_members.assign(g, {});
    // Neurons may have different numbers of non-empty partitions (equi-width
    // partitioning of skewed values leaves gaps); a neuron whose list is
    // exhausted simply sits out later rounds.
    max_rounds = 0;
    for (const auto& list : ord) max_rounds = std::max(max_rounds, list.size());
  }

  Status StepPartitionRound() {
    if (!partitions_ready) InitPartitions();
    if (finished || partition_round >= max_rounds) {
      phase = Phase::kDone;
      return Status::OK();
    }
    DE_RETURN_NOT_OK(ctx->CheckRunnable());
    SpanScope round_span(ctx->trace.get(), "nta.round");
    const int64_t inputs_before = ctx->receipt.inputs_run;
    const int64_t hits_before = state.iqa_hits;
    const size_t c = partition_round;
    // Step 4(a): gather this round's partitions; the union of their
    // not-yet-evaluated members becomes the pending batch.
    for (size_t gi = 0; gi < g; ++gi) {
      round_members[gi].clear();
      if (c >= ord[gi].size()) continue;  // neuron exhausted
      index->GetInputIds(group.neurons[gi], ord[gi][c], &round_members[gi]);
      for (uint32_t id : round_members[gi]) state.Claim(id);
    }
    // Step 4(b): batched inference for the union, update top.
    const size_t candidates = state.pending();
    DE_RETURN_NOT_OK(Evaluate());
    OfferNewlyMostSimilar();
    ++rounds;

    // Step 4(c): extend each neuron's contiguous seen range and compute
    // the threshold from the indicator-weighted boundary distances.
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
      min_dists[gi] = std::min(low, high);
    }
    const double t = dist->Aggregate(min_dists.data(), g);
    round_span.AddInt("round", rounds);
    round_span.AddInt("candidates", static_cast<int64_t>(candidates));
    round_span.AddInt("inputs_run", ctx->receipt.inputs_run - inputs_before);
    round_span.AddInt("iqa_hits", state.iqa_hits - hits_before);
    round_span.AddDouble("threshold", t);
    CheckTermination(t);
    EmitProgress(t);
    ++partition_round;
    if (finished || partition_round >= max_rounds) phase = Phase::kDone;
    return Status::OK();
  }

  // Highest phase A: consume MAI entries globally in descending activation
  // order (classic TA parallel sorted access).
  Status StepHighestMaiRound() {
    // Between-rounds deadline/cancellation check (see StepMaiRound).
    DE_RETURN_NOT_OK(ctx->CheckRunnable());
    SpanScope round_span(ctx->trace.get(), "nta.round");
    const int64_t inputs_before = ctx->receipt.inputs_run;
    const int64_t hits_before = state.iqa_hits;
    // Lockstep sorted access: each sweep consumes the next highest MAI
    // entry of every neuron; sweeps continue until the batch of uncomputed
    // inputs is full.
    bool any_left = true;
    while (static_cast<int>(state.pending()) < inference->batch_size() &&
           any_left) {
      any_left = false;
      for (size_t gi = 0; gi < g; ++gi) {
        if (mai_next[gi] >= mai_count) continue;
        const MaiEntry& entry =
            index->MaiEntries(group.neurons[gi])[mai_next[gi]];
        ++mai_next[gi];
        if (mai_next[gi] < mai_count) any_left = true;
        state.Claim(entry.input_id);
      }
    }
    bool exhausted = true;
    for (size_t gi = 0; gi < g; ++gi) {
      if (mai_next[gi] < mai_count) exhausted = false;
    }
    const size_t candidates = state.pending();
    DE_RETURN_NOT_OK(Evaluate());
    OfferNewlyHighest();
    ++rounds;
    CheckAndProgressHighest();
    round_span.AddInt("round", rounds);
    round_span.AddInt("candidates", static_cast<int64_t>(candidates));
    round_span.AddInt("inputs_run", ctx->receipt.inputs_run - inputs_before);
    round_span.AddInt("iqa_hits", state.iqa_hits - hits_before);
    round_span.AddDouble("threshold", last_threshold);
    if (finished) {
      phase = Phase::kDone;
    } else if (exhausted) {
      phase = Phase::kHighestPartition;
    }
    return Status::OK();
  }

  // Highest phase B: whole partitions, highest first.
  Status StepHighestPartitionRound() {
    if (finished || next_pid >= num_partitions) {
      phase = Phase::kDone;
      return Status::OK();
    }
    DE_RETURN_NOT_OK(ctx->CheckRunnable());
    SpanScope round_span(ctx->trace.get(), "nta.round");
    const int64_t inputs_before = ctx->receipt.inputs_run;
    const int64_t hits_before = state.iqa_hits;
    const int pid = next_pid;
    for (size_t gi = 0; gi < g; ++gi) {
      members.clear();
      index->GetInputIds(group.neurons[gi], static_cast<uint32_t>(pid),
                         &members);
      for (uint32_t id : members) state.Claim(id);
      next_partition[gi] = pid + 1;
    }
    const size_t candidates = state.pending();
    DE_RETURN_NOT_OK(Evaluate());
    OfferNewlyHighest();
    ++rounds;
    CheckAndProgressHighest();
    round_span.AddInt("round", rounds);
    round_span.AddInt("candidates", static_cast<int64_t>(candidates));
    round_span.AddInt("inputs_run", ctx->receipt.inputs_run - inputs_before);
    round_span.AddInt("iqa_hits", state.iqa_hits - hits_before);
    round_span.AddDouble("threshold", last_threshold);
    ++next_pid;
    if (finished || next_pid >= num_partitions) phase = Phase::kDone;
    return Status::OK();
  }
};

NtaExecution::NtaExecution(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

NtaExecution::~NtaExecution() = default;

bool NtaExecution::done() const { return impl_->phase == Impl::Phase::kDone; }

Status NtaExecution::Step() {
  Impl& im = *impl_;
  if (im.phase == Impl::Phase::kDone) return im.error;
  ActiveTimeCharge charge(&im.active_seconds);
  Status s = Status::OK();
  switch (im.phase) {
    case Impl::Phase::kPrologue:
      s = im.StepPrologue();
      break;
    case Impl::Phase::kMaiRound:
      s = im.StepMaiRound();
      break;
    case Impl::Phase::kPartitionRound:
      s = im.StepPartitionRound();
      break;
    case Impl::Phase::kHighestMaiRound:
      s = im.StepHighestMaiRound();
      break;
    case Impl::Phase::kHighestPartition:
      s = im.StepHighestPartitionRound();
      break;
    case Impl::Phase::kDone:
      break;
  }
  if (!s.ok()) {
    // A failed step finishes the execution; TakeResult() reports the error.
    im.error = s;
    im.phase = Impl::Phase::kDone;
  }
  return s;
}

Status NtaExecution::RunUntil(const std::function<bool()>& should_yield) {
  while (!done()) {
    DE_RETURN_NOT_OK(Step());
    if (!done() && should_yield && should_yield()) return Status::OK();
  }
  return Status::OK();
}

Result<TopKResult> NtaExecution::Run() {
  while (!done()) {
    const Status s = Step();
    if (!s.ok()) return s;
  }
  return TakeResult();
}

Result<TopKResult> NtaExecution::TakeResult() {
  Impl& im = *impl_;
  if (im.phase != Impl::Phase::kDone) {
    return Status::FailedPrecondition("NTA execution is not finished");
  }
  if (!im.error.ok()) return im.error;
  TopKResult result;
  result.entries = im.top.entries();
  // This query's exact inference cost: the delta of the context receipt
  // over the whole execution (a per-query context starts at zero, so
  // usually the receipt itself).
  result.stats.inputs_run =
      im.ctx->receipt.inputs_run - im.start_receipt.inputs_run;
  result.stats.batches_run =
      im.ctx->receipt.batches_run - im.start_receipt.batches_run;
  result.stats.simulated_gpu_seconds =
      im.ctx->receipt.simulated_gpu_seconds -
      im.start_receipt.simulated_gpu_seconds;
  result.stats.rounds = im.rounds;
  result.stats.iqa_hits = im.state.iqa_hits;
  result.stats.terminated_early = im.terminated_early;
  result.stats.wall_seconds = im.active_seconds;
  return result;
}

Status NtaEngine::ValidateGroup(const NeuronGroup& group) const {
  if (group.neurons.empty()) {
    return Status::InvalidArgument("neuron group is empty");
  }
  if (group.layer < 0 || group.layer >= inference_->model().num_layers()) {
    return Status::OutOfRange("layer " + std::to_string(group.layer) +
                              " out of range");
  }
  const int64_t layer_neurons = inference_->model().NeuronCount(group.layer);
  if (layer_neurons != index_->num_neurons()) {
    return Status::FailedPrecondition(
        "index neuron count " + std::to_string(index_->num_neurons()) +
        " does not match layer " + std::to_string(group.layer) + " (" +
        std::to_string(layer_neurons) + " neurons)");
  }
  // The index may lag a live-growing dataset (ingest): it must cover a
  // prefix of the dataset, never more inputs than exist.
  if (index_->num_inputs() > inference_->dataset().size()) {
    return Status::FailedPrecondition("index built for a different dataset");
  }
  for (int64_t n : group.neurons) {
    if (n < 0 || n >= layer_neurons) {
      return Status::OutOfRange("neuron " + std::to_string(n) +
                                " out of range for layer " +
                                std::to_string(group.layer));
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<NtaExecution>> NtaEngine::BeginMostSimilarTo(
    const NeuronGroup& group, uint32_t target_id, const NtaOptions& options,
    QueryContext* ctx) {
  DE_RETURN_NOT_OK(ValidateGroup(group));
  if (target_id >= inference_->dataset().size()) {
    return Status::OutOfRange("target input " + std::to_string(target_id) +
                              " out of range");
  }
  DE_RETURN_NOT_OK(ValidateOptions(options));
  if (ctx == nullptr) {
    return Status::InvalidArgument(
        "a QueryContext is required to begin an execution");
  }
  std::unique_ptr<NtaExecution::Impl> impl(new NtaExecution::Impl(
      inference_, index_, ctx, group, options, /*is_highest=*/false));
  impl->has_target_id = true;
  impl->target_id = target_id;
  return std::unique_ptr<NtaExecution>(new NtaExecution(std::move(impl)));
}

Result<std::unique_ptr<NtaExecution>> NtaEngine::BeginMostSimilar(
    const NeuronGroup& group, const std::vector<float>& target_acts,
    const NtaOptions& options, QueryContext* ctx) {
  DE_RETURN_NOT_OK(ValidateGroup(group));
  if (target_acts.size() != group.neurons.size()) {
    return Status::InvalidArgument("target activation count mismatch");
  }
  DE_RETURN_NOT_OK(ValidateOptions(options));
  if (ctx == nullptr) {
    return Status::InvalidArgument(
        "a QueryContext is required to begin an execution");
  }
  std::unique_ptr<NtaExecution::Impl> impl(new NtaExecution::Impl(
      inference_, index_, ctx, group, options, /*is_highest=*/false));
  impl->target_acts = target_acts;
  return std::unique_ptr<NtaExecution>(new NtaExecution(std::move(impl)));
}

Result<std::unique_ptr<NtaExecution>> NtaEngine::BeginHighest(
    const NeuronGroup& group, const NtaOptions& options, QueryContext* ctx) {
  DE_RETURN_NOT_OK(ValidateGroup(group));
  DE_RETURN_NOT_OK(ValidateOptions(options));
  if (ctx == nullptr) {
    return Status::InvalidArgument(
        "a QueryContext is required to begin an execution");
  }
  std::unique_ptr<NtaExecution::Impl> impl(new NtaExecution::Impl(
      inference_, index_, ctx, group, options, /*is_highest=*/true));
  // Per-neuron sorted access position: MAI entries consumed first (exact
  // values, descending), then whole partitions.
  impl->use_mai = options.use_mai && index_->has_mai();
  impl->mai_count = index_->mai_count();
  impl->mai_next.assign(impl->g, 0);
  impl->next_partition.assign(impl->g, impl->use_mai ? 1 : 0);
  impl->next_pid = impl->use_mai ? 1 : 0;
  impl->phase = impl->use_mai ? NtaExecution::Impl::Phase::kHighestMaiRound
                              : NtaExecution::Impl::Phase::kHighestPartition;
  return std::unique_ptr<NtaExecution>(new NtaExecution(std::move(impl)));
}

Result<TopKResult> NtaEngine::MostSimilarTo(const NeuronGroup& group,
                                            uint32_t target_id,
                                            const NtaOptions& options,
                                            QueryContext* ctx) {
  QueryContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  DE_ASSIGN_OR_RETURN(std::unique_ptr<NtaExecution> execution,
                      BeginMostSimilarTo(group, target_id, options, ctx));
  return execution->Run();
}

Result<TopKResult> NtaEngine::MostSimilar(const NeuronGroup& group,
                                          const std::vector<float>& target_acts,
                                          const NtaOptions& options,
                                          QueryContext* ctx) {
  QueryContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  DE_ASSIGN_OR_RETURN(std::unique_ptr<NtaExecution> execution,
                      BeginMostSimilar(group, target_acts, options, ctx));
  return execution->Run();
}

Result<TopKResult> NtaEngine::Highest(const NeuronGroup& group,
                                      const NtaOptions& options,
                                      QueryContext* ctx) {
  QueryContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  DE_ASSIGN_OR_RETURN(std::unique_ptr<NtaExecution> execution,
                      BeginHighest(group, options, ctx));
  return execution->Run();
}

// ---------------------------------------------------------------------------
// Reference executors
// ---------------------------------------------------------------------------

namespace {

std::vector<uint32_t> AllIds(uint32_t n) {
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

/// Rows the reference executors feed the batched distance calls per block:
/// large enough to amortise the virtual + kernel dispatch, small enough to
/// stay cache-resident alongside the gather source.
constexpr size_t kScanBlockRows = 256;

/// Streams `num_inputs` rows through `row_of`/`skip` in blocks: gathers the
/// group's columns into a contiguous scratch block, runs one batched
/// `aggregate` call per block, and offers every result. The fresh-scan
/// references run through the same dispatched kernels as the service path,
/// which is what keeps the §4.6 bit-equality invariant per dispatch mode.
template <typename RowOf, typename SkipFn, typename AggregateFn>
void ScanBlocked(uint32_t num_inputs, const std::vector<int64_t>& neurons,
                 RowOf row_of, SkipFn skip, AggregateFn aggregate,
                 TopKSet* top) {
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
      const float* row = row_of(id);
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
      matrix.num_inputs, neurons, [&](uint32_t id) { return matrix.Row(id); },
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
      matrix.num_inputs, neurons, [&](uint32_t id) { return matrix.Row(id); },
      [](uint32_t) { return false; },
      [&](const float* block, size_t rows, double* out) {
        dist->AggregateValuesMany(block, g, rows, g, out);
      },
      &top);
  TopKResult result;
  result.entries = top.entries();
  return result;
}

Result<TopKResult> BruteForceMostSimilar(nn::InferenceEngine* inference,
                                         const NeuronGroup& group,
                                         const std::vector<float>& target_acts,
                                         int k, const DistancePtr& dist,
                                         bool exclude_target,
                                         uint32_t target_id) {
  const DistancePtr d = dist != nullptr ? dist : L2Distance();
  std::vector<std::vector<float>> rows;
  const std::vector<uint32_t> ids = AllIds(inference->dataset().size());
  nn::InferenceReceipt receipt;
  DE_RETURN_NOT_OK(inference->ComputeLayer(ids, group.layer, &rows, &receipt));
  TopKSet top(k, /*smaller_is_better=*/true);
  const size_t g = group.neurons.size();
  ScanBlocked(
      static_cast<uint32_t>(ids.size()), group.neurons,
      [&](uint32_t id) { return rows[id].data(); },
      [&](uint32_t id) { return exclude_target && id == target_id; },
      [&](const float* block, size_t num_rows, double* out) {
        d->AggregateAbsDiffMany(block, g, num_rows, target_acts.data(), g,
                                out);
      },
      &top);
  TopKResult result;
  result.entries = top.entries();
  result.stats.inputs_run = receipt.inputs_run;
  result.stats.batches_run = receipt.batches_run;
  result.stats.simulated_gpu_seconds = receipt.simulated_gpu_seconds;
  return result;
}

Result<TopKResult> BruteForceHighest(nn::InferenceEngine* inference,
                                     const NeuronGroup& group, int k,
                                     const DistancePtr& dist) {
  const DistancePtr d = dist != nullptr ? dist : L2Distance();
  std::vector<std::vector<float>> rows;
  const std::vector<uint32_t> ids = AllIds(inference->dataset().size());
  nn::InferenceReceipt receipt;
  DE_RETURN_NOT_OK(inference->ComputeLayer(ids, group.layer, &rows, &receipt));
  TopKSet top(k, /*smaller_is_better=*/false);
  const size_t g = group.neurons.size();
  ScanBlocked(
      static_cast<uint32_t>(ids.size()), group.neurons,
      [&](uint32_t id) { return rows[id].data(); },
      [](uint32_t) { return false; },
      [&](const float* block, size_t num_rows, double* out) {
        d->AggregateValuesMany(block, g, num_rows, g, out);
      },
      &top);
  TopKResult result;
  result.entries = top.entries();
  result.stats.inputs_run = receipt.inputs_run;
  result.stats.batches_run = receipt.batches_run;
  result.stats.simulated_gpu_seconds = receipt.simulated_gpu_seconds;
  return result;
}

}  // namespace core
}  // namespace deepeverest
