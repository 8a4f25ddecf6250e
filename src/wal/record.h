// Write-ahead-log record format: binary, length-prefixed, CRC32C-framed.
//
// A frame on disk is
//
//   ┌────────────┬───────────┬──────────────────────────────┐
//   │ length u32 │ crc32c u32│ payload (`length` bytes)     │
//   └────────────┴───────────┴──────────────────────────────┘
//     little-endian           crc is over the payload only
//
//   payload := type u8 · sequence u64 · clock u64 · contract_id u32 · body
//   kRegister body   := name_len u32 · name · ltl_len u32 · ltl_text
//   kUnregister body := (empty — contract_id is in the common header)
//   kReplace body    := ltl_len u32 · ltl_text
//   kCheckpoint body := path_len u32 · snapshot_path
//
// `sequence` is the record's 1-based position among this log's mutating
// records (dense: every kRegister/kUnregister/kReplace advances it by one) —
// what recovery checks for continuity. `clock` is the system-period clock
// the mutation happened at (DESIGN.md §14): equal to `sequence` for an
// unsharded database, a router-assigned global value (sparse per shard) for
// a sharded one. `contract_id` names the contract the mutation touched; for
// kRegister it is the id the registration was assigned, which recovery
// verifies replay reproduces. For kCheckpoint, `sequence` is the mutation
// sequence the checkpoint image covers and `snapshot_path` the checkpoint
// file's name within the WAL directory (clock/contract_id are zero).
//
// Decoding is hostile-input safe: any framing or structural violation comes
// back as Status::Corruption, never a crash or overread (fuzzed by
// tools/fuzz/fuzz_wal).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/byte_codec.h"
#include "util/result.h"

namespace ctdb::wal {

enum class RecordType : uint8_t {
  kRegister = 1,
  kCheckpoint = 2,
  kUnregister = 3,
  kReplace = 4,
};

/// True for the record types that mutate the contract set (and therefore
/// advance the mutation sequence); kCheckpoint is bookkeeping.
inline constexpr bool IsMutationType(RecordType type) {
  return type == RecordType::kRegister || type == RecordType::kUnregister ||
         type == RecordType::kReplace;
}

/// One logical log record (see the format comment above).
struct Record {
  RecordType type = RecordType::kRegister;
  uint64_t sequence = 0;
  uint64_t clock = 0;         ///< system-period clock of the mutation
  uint32_t contract_id = 0;   ///< contract the mutation touched
  std::string name;           ///< kRegister: contract name
  std::string ltl_text;       ///< kRegister/kReplace: the LTL specification
  std::string snapshot_path;  ///< kCheckpoint: checkpoint file name

  static Record Register(uint64_t sequence, uint64_t clock,
                         uint32_t contract_id, std::string name,
                         std::string ltl_text);
  static Record Unregister(uint64_t sequence, uint64_t clock,
                           uint32_t contract_id);
  static Record Replace(uint64_t sequence, uint64_t clock,
                        uint32_t contract_id, std::string ltl_text);
  static Record Checkpoint(uint64_t sequence, std::string snapshot_path);

  bool operator==(const Record& other) const;
};

/// Frame header size: length u32 + crc u32 (util/byte_codec.h).
using util::kFrameHeaderBytes;

/// Lower bound on one payload: the common header (type u8 · sequence u64 ·
/// clock u64 · contract_id u32) that every record type carries. Anything
/// shorter is rejected before the CRC is even consulted — which also keeps a
/// run of zero bytes (length 0 · crc 0 · empty payload, and CRC32C("") == 0)
/// from passing FrameLooksValid and turning a torn tail into a false
/// mid-log-corruption verdict.
inline constexpr size_t kMinRecordBytes = 1 + 8 + 8 + 4;

/// Upper bound on one payload; larger length prefixes are rejected as
/// corruption before any allocation, bounding memory under hostile input.
inline constexpr size_t kMaxRecordBytes = 1u << 26;

/// Serializes the payload (no frame header).
std::string EncodePayload(const Record& record);

/// Parses a payload produced by EncodePayload. Corruption on any structural
/// violation; trailing garbage after the body is corruption too.
Status DecodePayload(std::string_view payload, Record* record);

/// Serializes the full frame: header + payload.
std::string EncodeFrame(const Record& record);

/// \brief Reads the frame starting at `data[offset]`.
///
/// On success advances `*offset` past the frame and fills `*record`. Returns
/// Corruption when the bytes at `offset` are not a whole, CRC-valid,
/// decodable frame (the segment reader decides whether that means a torn
/// tail or real corruption — segment.h).
Status DecodeFrame(std::string_view data, size_t* offset, Record* record);

/// True iff a syntactically complete frame with a matching CRC starts at
/// `data[offset]` (no payload decoding). Used by the segment reader to
/// distinguish a torn tail from mid-log corruption.
bool FrameLooksValid(std::string_view data, size_t offset);

}  // namespace ctdb::wal
