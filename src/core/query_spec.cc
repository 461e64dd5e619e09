#include "core/query_spec.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace deepeverest {
namespace core {

namespace {

/// Largest accepted deadline, ~3 years in ms: keeps ms→ns conversions far
/// from the int64 range QueryContext::SetDeadlineAfter casts into. Wire
/// input feeds this path, so the bound is part of validation, not a caller
/// courtesy.
constexpr double kMaxDeadlineMs = 1e11;

bool BitEqual(double a, double b) {
  // Field equality must be *bit* equality for the round-trip tests, but
  // both arms only ever hold values produced by parsing finite decimal
  // text, so comparing values (with -0.0 == 0.0 collapsed by ==) suffices
  // — except NaN, which validation rejects anyway.
  return a == b || (std::isnan(a) && std::isnan(b));
}

}  // namespace

bool operator==(const QuerySpec& a, const QuerySpec& b) {
  return a.kind == b.kind && a.k == b.k && a.layer == b.layer &&
         a.neurons == b.neurons && a.top_neurons == b.top_neurons &&
         a.top_of == b.top_of && a.target_id == b.target_id &&
         a.target_activations == b.target_activations &&
         a.distance == b.distance && BitEqual(a.theta, b.theta) &&
         a.session_id == b.session_id && a.qos == b.qos &&
         BitEqual(a.deadline_ms, b.deadline_ms) && a.weight == b.weight;
}

Status ValidateSpec(const QuerySpec& spec) {
  if (spec.kind != QuerySpec::Kind::kHighest &&
      spec.kind != QuerySpec::Kind::kMostSimilar) {
    return Status::InvalidArgument("unknown query kind");
  }
  if (spec.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (spec.layer < 0) return Status::InvalidArgument("layer must be >= 0");
  if (!(spec.theta > 0.0 && spec.theta <= 1.0)) {  // also rejects NaN
    return Status::InvalidArgument("theta must be in (0, 1]");
  }

  // Exactly one group form: explicit indices XOR the derived TOP m NEURONS.
  if (spec.top_neurons < 0) {
    return Status::InvalidArgument("top_neurons must be >= 0");
  }
  if (spec.top_neurons > 0 && !spec.neurons.empty()) {
    return Status::InvalidArgument(
        "explicit neurons and TOP m NEURONS are mutually exclusive");
  }
  if (spec.top_neurons == 0 && spec.neurons.empty()) {
    return Status::InvalidArgument("empty neuron group");
  }
  if (spec.top_neurons == 0 && spec.top_of >= 0) {
    // A top_of reference on an explicit group would be silently ignored —
    // the caller almost certainly meant a derived group and forgot
    // top_neurons; rejecting keeps "no silently different query" strict.
    return Status::InvalidArgument(
        "top_of requires a derived group (top_neurons > 0)");
  }
  for (const int64_t neuron : spec.neurons) {
    if (neuron < 0) {
      return Status::InvalidArgument("neuron index must be >= 0, got " +
                                     std::to_string(neuron));
    }
  }
  // Duplicates would double-count the neuron in every distance aggregate —
  // never what the user meant, and previously each entry point treated it
  // differently (QL allowed it, the engine silently computed it).
  std::vector<int64_t> sorted = spec.neurons;
  std::sort(sorted.begin(), sorted.end());
  const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  if (dup != sorted.end()) {
    return Status::InvalidArgument("duplicate neuron index " +
                                   std::to_string(*dup) + " in group");
  }

  // Reference inputs are uint32 ids on the engine side.
  const int64_t max_input =
      static_cast<int64_t>(std::numeric_limits<uint32_t>::max());
  if (spec.kind == QuerySpec::Kind::kMostSimilar) {
    // Exactly one target form: a dataset input XOR an explicit activation
    // vector.
    if (spec.target_id < 0 && spec.target_activations.empty()) {
      return Status::InvalidArgument(
          "most-similar query requires target_id >= 0 or "
          "target_activations");
    }
    if (spec.target_id >= 0 && !spec.target_activations.empty()) {
      return Status::InvalidArgument(
          "target_id and target_activations are mutually exclusive");
    }
    if (spec.target_id > max_input) {
      return Status::InvalidArgument("target_id out of range");
    }
    if (!spec.target_activations.empty()) {
      for (const float v : spec.target_activations) {
        if (std::isnan(v)) {
          return Status::InvalidArgument(
              "target_activations must not contain NaN");
        }
      }
      // The vector is one value per group neuron; with an explicit group
      // the engine-independent shape is checkable right here.
      const size_t group_size = spec.has_derived_group()
                                    ? static_cast<size_t>(spec.top_neurons)
                                    : spec.neurons.size();
      if (spec.target_activations.size() != group_size) {
        return Status::InvalidArgument(
            "target_activations must have one value per group neuron");
      }
    }
  } else {
    if (spec.target_id >= 0) {
      // A target on a highest query would be silently ignored — the caller
      // almost certainly forgot kind=most_similar; reject, don't guess.
      return Status::InvalidArgument("target_id requires kind=most_similar");
    }
    if (!spec.target_activations.empty()) {
      return Status::InvalidArgument(
          "target_activations requires kind=most_similar");
    }
  }
  if (spec.top_of > max_input) {
    return Status::InvalidArgument("top_of out of range");
  }
  if (spec.has_derived_group() && spec.top_of < 0 &&
      spec.kind == QuerySpec::Kind::kHighest) {
    return Status::InvalidArgument(
        "HIGHEST with TOP m NEURONS requires OF <input> (no SIMILAR "
        "target to default to)");
  }
  if (spec.has_derived_group() && spec.top_of < 0 &&
      !spec.target_activations.empty()) {
    // The derived group is resolved from a dataset input; an activation
    // vector is not one.
    return Status::InvalidArgument(
        "TOP m NEURONS with target_activations requires OF <input>");
  }

  switch (spec.distance) {
    case DistanceKind::kL1:
    case DistanceKind::kL2:
    case DistanceKind::kLInf:
      break;
    default:
      // WeightedL2 needs per-neuron weights the spec does not carry.
      return Status::InvalidArgument("unsupported distance for a QuerySpec");
  }

  // Serving envelope. Negative deadline_ms = no deadline (any negative
  // value, so a decoded default round-trips); non-negative must be finite
  // and bounded.
  if (spec.deadline_ms >= 0.0 &&
      !(spec.deadline_ms <= kMaxDeadlineMs)) {  // also rejects NaN
    return Status::InvalidArgument("deadline_ms must be in [0, 1e11]");
  }
  if (std::isnan(spec.deadline_ms)) {
    return Status::InvalidArgument("deadline_ms must be a number");
  }
  if (spec.weight < 1) {
    return Status::InvalidArgument("session weight must be >= 1");
  }
  const int class_index = QosIndex(spec.qos);
  if (class_index < 0 || class_index >= kNumQosClasses) {
    return Status::InvalidArgument("unknown QoS class");
  }
  return Status::OK();
}

QuerySpec HighestQuery(const NeuronGroup& group, int k) {
  QuerySpec spec;
  spec.kind = QuerySpec::Kind::kHighest;
  spec.k = k;
  spec.layer = group.layer;
  spec.neurons = group.neurons;
  return spec;
}

QuerySpec MostSimilarQuery(int64_t target_id, const NeuronGroup& group,
                           int k) {
  QuerySpec spec = HighestQuery(group, k);
  spec.kind = QuerySpec::Kind::kMostSimilar;
  spec.target_id = target_id;
  return spec;
}

}  // namespace core
}  // namespace deepeverest
