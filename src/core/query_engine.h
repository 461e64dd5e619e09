#ifndef DEEPEVEREST_CORE_QUERY_ENGINE_H_
#define DEEPEVEREST_CORE_QUERY_ENGINE_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "core/query.h"
#include "core/query_context.h"
#include "core/query_spec.h"

namespace deepeverest {
namespace core {

/// \brief The one query interface: DeepEverest and every baseline strategy
/// of paper §4.1 answer a QuerySpec through ExecuteSpec, so the multi-query
/// experiments (§5.3–5.6) drive every method with the same query stream.
class QueryEngine {
 public:
  QueryEngine() = default;
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;
  virtual ~QueryEngine() = default;

  virtual std::string name() const = 0;

  /// Bytes of disk storage this strategy currently uses.
  virtual Result<uint64_t> StorageBytes() const = 0;

  /// Answers `spec` to completion. `ctx` may be null (a default context:
  /// no deadline, direct inference); when given, its cancellation and
  /// deadline are honoured and the query's inference cost is charged to
  /// `ctx->receipt`.
  virtual Result<TopKResult> ExecuteSpec(const QuerySpec& spec,
                                         QueryContext* ctx = nullptr) = 0;
};

}  // namespace core
}  // namespace deepeverest

#endif  // DEEPEVEREST_CORE_QUERY_ENGINE_H_
