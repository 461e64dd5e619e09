#include "persist/ingest_log.h"

#include "common/logging.h"
#include "common/serde.h"
#include "persist/format.h"

namespace deepeverest {
namespace persist {

namespace {
constexpr uint32_t kRecordMagic = 0xDEE710C4;
}  // namespace

std::string IngestLog::KeyFor(const std::string& model) {
  return "ingest/" + model + ".log";
}

namespace {

void FrameRecord(const IngestRecord& record, std::vector<uint8_t>* out) {
  BinaryWriter payload;
  payload.WriteU32(record.input_id);
  payload.WriteI32(record.label);
  payload.WriteF32Vector(record.values);

  BinaryWriter frame;
  frame.WriteU32(kRecordMagic);
  frame.WriteU64(payload.buffer().size());
  frame.WriteU32(Crc32(payload.buffer()));
  out->insert(out->end(), frame.buffer().begin(), frame.buffer().end());
  out->insert(out->end(), payload.buffer().begin(), payload.buffer().end());
}

}  // namespace

Status IngestLog::AppendBatch(const std::vector<IngestRecord>& records) {
  if (records.empty()) return Status::OK();
  std::vector<uint8_t> bytes;
  for (const IngestRecord& record : records) FrameRecord(record, &bytes);
  return store_->Append(key_, bytes, sync_);
}

Result<std::vector<IngestRecord>> IngestLog::Replay() const {
  std::vector<IngestRecord> records;
  if (!store_->Exists(key_)) return records;
  DE_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, store_->Read(key_));
  BinaryReader reader(bytes);
  while (!reader.AtEnd()) {
    uint32_t magic = 0;
    uint64_t size = 0;
    uint32_t crc = 0;
    // Any framing failure from here on is a torn tail: stop replay at the
    // last intact record. Those bytes were never fsynced before an ack.
    if (!reader.ReadU32(&magic).ok() || magic != kRecordMagic ||
        !reader.ReadU64(&size).ok() || !reader.ReadU32(&crc).ok() ||
        reader.remaining() < size) {
      DE_LOG_WARNING << "ingest log '" << key_ << "': dropping torn tail ("
                     << reader.remaining() << " trailing bytes)";
      break;
    }
    std::vector<uint8_t> payload(bytes.end() - reader.remaining(),
                                 bytes.end() - reader.remaining() +
                                     static_cast<ptrdiff_t>(size));
    DE_RETURN_NOT_OK(reader.Skip(size));
    if (Crc32(payload) != crc) {
      DE_LOG_WARNING << "ingest log '" << key_
                     << "': dropping torn/corrupt record and tail";
      break;
    }
    BinaryReader record_reader(payload);
    IngestRecord record;
    DE_RETURN_NOT_OK(record_reader.ReadU32(&record.input_id));
    DE_RETURN_NOT_OK(record_reader.ReadI32(&record.label));
    DE_RETURN_NOT_OK(record_reader.ReadF32Vector(&record.values));
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace persist
}  // namespace deepeverest
