#ifndef DEEPEVEREST_PERSIST_INGEST_LOG_H_
#define DEEPEVEREST_PERSIST_INGEST_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/file_store.h"

namespace deepeverest {
namespace persist {

/// One durably logged ingested input.
struct IngestRecord {
  uint32_t input_id = 0;
  int32_t label = 0;
  std::vector<float> values;
};

/// \brief Append-only, checksummed record log of ingested inputs.
///
/// The base dataset is reconstructed deterministically at startup (or loaded
/// from its own source); everything ingested afterwards is logged here
/// *before* it becomes visible in the Dataset, so any input a query or an
/// index merge can ever observe is already durable. Replay after a crash
/// rebuilds exactly the acknowledged suffix: each record is individually
/// framed and CRC'd, and a torn tail (crash mid-append) is detected and
/// dropped — by the durability ordering it was never acknowledged.
class IngestLog {
 public:
  /// Log key for `model` inside the store.
  static std::string KeyFor(const std::string& model);

  /// `sync` fsyncs every append (the exactly-once guarantee needs it; tests
  /// may disable it for speed).
  IngestLog(storage::FileStore* store, std::string model, bool sync = true)
      : store_(store), key_(KeyFor(model)), sync_(sync) {}

  /// Durably appends a batch of records as one write (one fsync for the
  /// batch). Returns only after the bytes are on disk (when sync is on) —
  /// the caller may then expose the inputs to readers.
  Status AppendBatch(const std::vector<IngestRecord>& records);

  /// Replays every intact record in order. Records after the first torn or
  /// corrupt frame are dropped (with a warning); absence of the log file is
  /// an empty replay, not an error.
  Result<std::vector<IngestRecord>> Replay() const;

 private:
  storage::FileStore* store_;
  std::string key_;
  bool sync_;
};

}  // namespace persist
}  // namespace deepeverest

#endif  // DEEPEVEREST_PERSIST_INGEST_LOG_H_
