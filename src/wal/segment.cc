#include "wal/segment.h"

#include <cinttypes>

#include "util/string_util.h"

namespace ctdb::wal {

std::string SegmentFileName(uint64_t index) {
  return StringFormat("wal-%012" PRIu64 ".log", index);
}

bool ParseSegmentFileName(std::string_view name, uint64_t* index) {
  if (!StartsWith(name, "wal-") || name.size() <= 8 ||
      name.substr(name.size() - 4) != ".log") {
    return false;
  }
  return ParseUint64(name.substr(4, name.size() - 8), index);
}

namespace {

/// True iff any syntactically complete, CRC-valid frame starts at or after
/// `from`. Random garbage almost never passes: the length prefix must fit
/// the remaining bytes (rejecting ~all 32-bit values for realistic segment
/// sizes) and the payload CRC must match (2^-32).
bool AnyValidFrameAfter(std::string_view data, size_t from) {
  if (data.size() < kFrameHeaderBytes) return false;
  for (size_t offset = from; offset + kFrameHeaderBytes <= data.size();
       ++offset) {
    if (FrameLooksValid(data, offset)) return true;
  }
  return false;
}

}  // namespace

Status ParseSegment(std::string_view data, ParsedSegment* out) {
  *out = ParsedSegment();
  if (data.size() < kSegmentMagic.size()) {
    // Crash between segment creation and the magic write.
    out->torn_tail = !data.empty();
    return Status::OK();
  }
  if (data.substr(0, kSegmentMagic.size()) != kSegmentMagic) {
    return Status::Corruption("bad segment magic");
  }
  size_t offset = kSegmentMagic.size();
  out->valid_bytes = offset;
  while (offset < data.size()) {
    Record record;
    const size_t frame_start = offset;
    const Status status = DecodeFrame(data, &offset, &record);
    if (!status.ok()) {
      if (AnyValidFrameAfter(data, frame_start + 1)) {
        return Status::Corruption("invalid frame before end of segment: " +
                                  status.message());
      }
      out->torn_tail = true;
      return Status::OK();
    }
    out->records.push_back(std::move(record));
    out->valid_bytes = offset;
  }
  return Status::OK();
}

}  // namespace ctdb::wal
