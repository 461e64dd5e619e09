#ifndef DEEPEVEREST_CORE_QUERY_SPEC_H_
#define DEEPEVEREST_CORE_QUERY_SPEC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/qos.h"
#include "common/result.h"
#include "core/distance.h"
#include "core/query.h"
#include "core/query_context.h"

namespace deepeverest {
namespace core {

/// \brief The one canonical description of a top-k query, shared by every
/// entry point: QL text (ParseQuery), the JSON wire protocol
/// (query_spec_json.h), and programmatic construction all produce a
/// QuerySpec, and QueryService::Submit / DeepEverest::ExecuteSpec consume
/// one. There is deliberately no other query representation in the system —
/// the declarative premise of the paper is "state *what* to retrieve"; this
/// struct is that statement.
///
/// A spec has two halves:
///  - the *declarative query*: kind, k, layer, the neuron group (explicit
///    indices or the derived `TOP m NEURONS [OF input]` form), distance, θ.
///    This half is what QL text and `ToString()` cover.
///  - the *serving envelope*: session, QoS class, deadline, weight, and the
///    per-submission progress sink. Engine-direct execution ignores the
///    scheduling fields; the QueryService enforces them.
///
/// Derived neuron groups (`top_neurons > 0`) are resolved at *execution*
/// time, inside the engine, under the query's QueryContext — so the
/// resolution inference is metered into the query's receipt, checked
/// against its deadline, and cancellable like every other part of the
/// query. (It used to happen in the QL layer, where none of that applied.)
struct QuerySpec {
  enum class Kind {
    kHighest,      // the k inputs with the largest aggregated activations
    kMostSimilar,  // the k inputs closest to dataset input `target_id`
  };

  // --- declarative query -------------------------------------------------
  Kind kind = Kind::kHighest;
  int k = 20;
  /// Model layer the neuron group lives in.
  int layer = 0;
  /// Explicit neuron group: flat element indices into the layer's output
  /// tensor. Empty when the group is derived (`top_neurons > 0`).
  std::vector<int64_t> neurons;
  /// Derived group `TOP m NEURONS`: when > 0, the group is the m maximally
  /// activated neurons of the reference input (§4.7.1), resolved at
  /// execution time under the query's context.
  int top_neurons = 0;
  /// Reference input for the derived group (`OF <input>`); -1 defaults to
  /// the most-similar target.
  int64_t top_of = -1;
  /// Target input for most-similar queries; -1 = unset. A kMostSimilar
  /// spec carries exactly one of `target_id` / `target_activations`.
  int64_t target_id = -1;
  /// Out-of-dataset most-similar target: an arbitrary activation vector,
  /// one value per neuron in the group (so for a derived group,
  /// `top_neurons` values). Unlike a `target_id` target, nothing is
  /// excluded from the result set. Programmatic + JSON wire only — QL text
  /// has no syntax for it.
  std::vector<float> target_activations;
  DistanceKind distance = DistanceKind::kL2;
  /// θ-approximation factor in (0, 1]; 1.0 = exact (paper section 6).
  double theta = 1.0;

  // --- serving envelope --------------------------------------------------
  /// Client session for admission fairness: same-session queries run FIFO
  /// relative to each other, distinct sessions are served round-robin
  /// within their QoS class.
  uint64_t session_id = 0;
  /// QoS class: a strict dispatch priority (interactive > batch >
  /// best_effort) and the selector of the device batch linger window.
  /// Results are identical across classes — only scheduling differs.
  QosClass qos = QosClass::kBatch;
  /// Deadline relative to admission, in milliseconds. Negative (the
  /// default) = no deadline; 0 = already due (the service rejects it at
  /// dispatch without running any inference); > 0 = the real budget. A
  /// query whose deadline passes while queued is rejected without running;
  /// one that expires mid-execution aborts cooperatively within one NTA
  /// round.
  double deadline_ms = -1.0;
  /// Weight of this query's session in the weighted round-robin among its
  /// class's sessions (>= 1; the session's most recent submission wins).
  int weight = 1;
  /// Per-submission progress sink, threaded into the query's QueryContext:
  /// invoked on the executing thread after each NTA round with the entries
  /// already *proven* final; return false to stop early with the current
  /// θ-guaranteed top-k. Not part of the wire/QL encodings and excluded
  /// from operator== — it is submission state, not query identity.
  std::function<bool(const NtaProgress&)> on_progress;

  /// Canonical QL text of the declarative half (round-trips through
  /// ParseQuery; θ is emitted with 17 significant digits so the round trip
  /// is bit-exact). The serving envelope is not part of QL syntax.
  std::string ToString() const;

  /// True when the neuron group is the derived `TOP m NEURONS` form.
  bool has_derived_group() const { return top_neurons > 0; }
};

/// Equality over every encodable field (both halves of the spec except
/// `on_progress`). θ and deadline compare bit-identically — this is what
/// the encode→decode round-trip tests assert.
bool operator==(const QuerySpec& a, const QuerySpec& b);
inline bool operator!=(const QuerySpec& a, const QuerySpec& b) {
  return !(a == b);
}

/// \brief THE validation choke point: every entry point (QL parsing, JSON
/// wire decoding, QueryService::Submit, DeepEverest::ExecuteSpec) funnels
/// through this one function, so the same malformed query yields the same
/// InvalidArgument from every door. Checks everything checkable without an
/// engine: k, θ, group shape (exactly one of explicit/derived, no
/// negative or duplicate neuron indices), kind/target consistency,
/// distance, and the serving envelope (deadline bound, weight, QoS class).
/// Engine-dependent bounds (layer count, neuron count, dataset size) are
/// enforced by the engine itself at execution.
Status ValidateSpec(const QuerySpec& spec);

/// Spec builders for short call sites (l2, exact, explicit group).
QuerySpec HighestQuery(const NeuronGroup& group, int k);
QuerySpec MostSimilarQuery(int64_t target_id, const NeuronGroup& group, int k);

}  // namespace core
}  // namespace deepeverest

#endif  // DEEPEVEREST_CORE_QUERY_SPEC_H_
