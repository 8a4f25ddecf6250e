#include "wal/record.h"

#include "util/byte_codec.h"
#include "util/crc32c.h"

namespace ctdb::wal {

using util::GetString;
using util::GetU32;
using util::GetU64;
using util::PutString;
using util::PutU32;
using util::PutU64;

Record Record::Register(uint64_t sequence, uint64_t clock,
                        uint32_t contract_id, std::string name,
                        std::string ltl_text) {
  Record r;
  r.type = RecordType::kRegister;
  r.sequence = sequence;
  r.clock = clock;
  r.contract_id = contract_id;
  r.name = std::move(name);
  r.ltl_text = std::move(ltl_text);
  return r;
}

Record Record::Unregister(uint64_t sequence, uint64_t clock,
                          uint32_t contract_id) {
  Record r;
  r.type = RecordType::kUnregister;
  r.sequence = sequence;
  r.clock = clock;
  r.contract_id = contract_id;
  return r;
}

Record Record::Replace(uint64_t sequence, uint64_t clock, uint32_t contract_id,
                       std::string ltl_text) {
  Record r;
  r.type = RecordType::kReplace;
  r.sequence = sequence;
  r.clock = clock;
  r.contract_id = contract_id;
  r.ltl_text = std::move(ltl_text);
  return r;
}

Record Record::Checkpoint(uint64_t sequence, std::string snapshot_path) {
  Record r;
  r.type = RecordType::kCheckpoint;
  r.sequence = sequence;
  r.snapshot_path = std::move(snapshot_path);
  return r;
}

bool Record::operator==(const Record& other) const {
  return type == other.type && sequence == other.sequence &&
         clock == other.clock && contract_id == other.contract_id &&
         name == other.name && ltl_text == other.ltl_text &&
         snapshot_path == other.snapshot_path;
}

std::string EncodePayload(const Record& record) {
  std::string out;
  out.push_back(static_cast<char>(record.type));
  PutU64(&out, record.sequence);
  PutU64(&out, record.clock);
  PutU32(&out, record.contract_id);
  switch (record.type) {
    case RecordType::kRegister:
      PutString(&out, record.name);
      PutString(&out, record.ltl_text);
      break;
    case RecordType::kUnregister:
      break;  // the common header carries everything
    case RecordType::kReplace:
      PutString(&out, record.ltl_text);
      break;
    case RecordType::kCheckpoint:
      PutString(&out, record.snapshot_path);
      break;
  }
  return out;
}

Status DecodePayload(std::string_view payload, Record* record) {
  if (payload.empty()) return Status::Corruption("empty record payload");
  *record = Record();
  size_t offset = 0;
  const uint8_t type = static_cast<uint8_t>(payload[offset++]);
  if (!GetU64(payload, &offset, &record->sequence) ||
      !GetU64(payload, &offset, &record->clock) ||
      !GetU32(payload, &offset, &record->contract_id)) {
    return Status::Corruption("record payload truncated in header");
  }
  switch (type) {
    case static_cast<uint8_t>(RecordType::kRegister):
      record->type = RecordType::kRegister;
      if (!GetString(payload, &offset, &record->name) ||
          !GetString(payload, &offset, &record->ltl_text)) {
        return Status::Corruption("register record payload truncated");
      }
      break;
    case static_cast<uint8_t>(RecordType::kUnregister):
      record->type = RecordType::kUnregister;
      break;
    case static_cast<uint8_t>(RecordType::kReplace):
      record->type = RecordType::kReplace;
      if (!GetString(payload, &offset, &record->ltl_text)) {
        return Status::Corruption("replace record payload truncated");
      }
      break;
    case static_cast<uint8_t>(RecordType::kCheckpoint):
      record->type = RecordType::kCheckpoint;
      if (!GetString(payload, &offset, &record->snapshot_path)) {
        return Status::Corruption("checkpoint record payload truncated");
      }
      break;
    default:
      return Status::Corruption("unknown record type " + std::to_string(type));
  }
  if (offset != payload.size()) {
    return Status::Corruption("trailing bytes after record body");
  }
  return Status::OK();
}

std::string EncodeFrame(const Record& record) {
  return util::EncodeFrame(EncodePayload(record));
}

Status DecodeFrame(std::string_view data, size_t* offset, Record* record) {
  size_t pos = *offset;
  uint32_t length = 0, crc = 0;
  if (!GetU32(data, &pos, &length) || !GetU32(data, &pos, &crc)) {
    return Status::Corruption("frame header truncated");
  }
  if (length > kMaxRecordBytes) {
    return Status::Corruption("frame length " + std::to_string(length) +
                              " exceeds record size cap");
  }
  if (data.size() - pos < length) {
    return Status::Corruption("frame payload truncated");
  }
  const std::string_view payload = data.substr(pos, length);
  if (util::Crc32c(payload) != crc) {
    return Status::Corruption("frame CRC mismatch");
  }
  CTDB_RETURN_NOT_OK(DecodePayload(payload, record));
  *offset = pos + length;
  return Status::OK();
}

bool FrameLooksValid(std::string_view data, size_t offset) {
  size_t pos = offset;
  uint32_t length = 0, crc = 0;
  if (!GetU32(data, &pos, &length) || !GetU32(data, &pos, &crc)) return false;
  // The minimum bound matters beyond hygiene: a run of ≥8 zero bytes decodes
  // as length 0 · crc 0, and CRC32C("") == 0 — without it, any torn tail
  // containing such a run (easy with u64 header fields) would look like a
  // valid later frame and misclassify the tear as mid-log corruption.
  if (length < kMinRecordBytes || length > kMaxRecordBytes) return false;
  if (data.size() - pos < length) return false;
  return util::Crc32c(data.substr(pos, length)) == crc;
}

}  // namespace ctdb::wal
