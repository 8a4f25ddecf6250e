// Unit tests for the WAL building blocks: CRC32C against known vectors, the
// record frame codec under truncation and bit flips, segment file naming,
// and the segment reader's torn-tail rule.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/crc32c.h"
#include "wal/record.h"
#include "wal/segment.h"

namespace ctdb::wal {
namespace {

// ---------------------------------------------------------------------------
// CRC32C

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / circulated CRC32C (Castagnoli) test vectors.
  EXPECT_EQ(util::Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(util::Crc32c(""), 0u);

  std::string zeros(32, '\0');
  EXPECT_EQ(util::Crc32c(zeros), 0x8A9136AAu);

  std::string ones(32, '\xff');
  EXPECT_EQ(util::Crc32c(ones), 0x62A8AB43u);

  std::string ramp(32, '\0');
  for (size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<char>(i);
  EXPECT_EQ(util::Crc32c(ramp), 0x46DD794Eu);
}

TEST(Crc32cTest, SeedChainsIncrementalComputation) {
  const std::string data = "hello, write-ahead log";
  const uint32_t whole = util::Crc32c(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t first = util::Crc32c(data.substr(0, split));
    const uint32_t chained = util::Crc32c(data.substr(split), first);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, SensitiveToEveryBit) {
  std::string data = "0123456789abcdef";
  const uint32_t base = util::Crc32c(data);
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<char>(1 << bit);
      EXPECT_NE(util::Crc32c(data), base)
          << "flip of byte " << byte << " bit " << bit << " undetected";
      data[byte] ^= static_cast<char>(1 << bit);
    }
  }
}

// ---------------------------------------------------------------------------
// Record codec

// Registration shorthand: clock == sequence (the unsharded invariant) and an
// arbitrary contract id derived from the sequence.
Record Reg(uint64_t sequence, std::string name, std::string ltl) {
  return Record::Register(sequence, sequence,
                          static_cast<uint32_t>(sequence - 1), std::move(name),
                          std::move(ltl));
}

TEST(WalRecordTest, RegisterRoundTrip) {
  const Record in = Record::Register(7, 21, 4, "gold-cust",
                                     "G(request -> F grant)");
  std::string payload = EncodePayload(in);
  Record out;
  ASSERT_TRUE(DecodePayload(payload, &out).ok());
  EXPECT_EQ(out, in);
  EXPECT_EQ(out.type, RecordType::kRegister);
  EXPECT_EQ(out.sequence, 7u);
  EXPECT_EQ(out.clock, 21u);
  EXPECT_EQ(out.contract_id, 4u);
  EXPECT_EQ(out.name, "gold-cust");
  EXPECT_EQ(out.ltl_text, "G(request -> F grant)");
}

TEST(WalRecordTest, UnregisterRoundTrip) {
  const Record in = Record::Unregister(8, 23, 4);
  Record out;
  ASSERT_TRUE(DecodePayload(EncodePayload(in), &out).ok());
  EXPECT_EQ(out, in);
  EXPECT_EQ(out.type, RecordType::kUnregister);
  EXPECT_EQ(out.sequence, 8u);
  EXPECT_EQ(out.clock, 23u);
  EXPECT_EQ(out.contract_id, 4u);
  EXPECT_TRUE(out.name.empty());
  EXPECT_TRUE(out.ltl_text.empty());
}

TEST(WalRecordTest, ReplaceRoundTrip) {
  const Record in = Record::Replace(9, 25, 4, "G !breach");
  Record out;
  ASSERT_TRUE(DecodePayload(EncodePayload(in), &out).ok());
  EXPECT_EQ(out, in);
  EXPECT_EQ(out.type, RecordType::kReplace);
  EXPECT_EQ(out.clock, 25u);
  EXPECT_EQ(out.contract_id, 4u);
  EXPECT_EQ(out.ltl_text, "G !breach");
}

TEST(WalRecordTest, CheckpointRoundTrip) {
  const Record in = Record::Checkpoint(42, "checkpoint-000000000042.ctdb");
  Record out;
  ASSERT_TRUE(DecodePayload(EncodePayload(in), &out).ok());
  EXPECT_EQ(out, in);
}

TEST(WalRecordTest, EmptyStringsRoundTrip) {
  const Record in = Reg(1, "", "");
  Record out;
  ASSERT_TRUE(DecodePayload(EncodePayload(in), &out).ok());
  EXPECT_EQ(out, in);
}

TEST(WalRecordTest, PayloadRejectsTruncationAtEveryLength) {
  const std::string payload =
      EncodePayload(Reg(3, "name", "F done"));
  Record out;
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_TRUE(DecodePayload(payload.substr(0, len), &out).IsCorruption())
        << "truncated payload of " << len << " bytes accepted";
  }
}

TEST(WalRecordTest, PayloadRejectsTrailingGarbage) {
  std::string payload = EncodePayload(Reg(3, "n", "F x"));
  payload += '\0';
  Record out;
  EXPECT_TRUE(DecodePayload(payload, &out).IsCorruption());
}

TEST(WalRecordTest, PayloadRejectsUnknownType) {
  std::string payload = EncodePayload(Reg(3, "n", "F x"));
  payload[0] = '\x09';
  Record out;
  EXPECT_TRUE(DecodePayload(payload, &out).IsCorruption());
}

TEST(WalRecordTest, FrameRoundTripAdvancesOffset) {
  const Record a = Reg(1, "a", "F p");
  const Record b = Record::Checkpoint(1, "checkpoint-000000000001.ctdb");
  const std::string data = EncodeFrame(a) + EncodeFrame(b);

  size_t offset = 0;
  Record out;
  ASSERT_TRUE(DecodeFrame(data, &offset, &out).ok());
  EXPECT_EQ(out, a);
  ASSERT_TRUE(DecodeFrame(data, &offset, &out).ok());
  EXPECT_EQ(out, b);
  EXPECT_EQ(offset, data.size());
}

TEST(WalRecordTest, FrameDetectsEveryPossibleBitFlip) {
  std::string data = EncodeFrame(Reg(9, "n", "G p"));
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<char>(1 << bit);
      size_t offset = 0;
      Record out;
      EXPECT_FALSE(DecodeFrame(data, &offset, &out).ok())
          << "flip of byte " << byte << " bit " << bit << " accepted";
      data[byte] ^= static_cast<char>(1 << bit);
    }
  }
}

TEST(WalRecordTest, FrameRejectsOversizedLengthWithoutAllocating) {
  // length prefix far beyond kMaxRecordBytes: must be rejected as corruption
  // up front (a hostile 4 GiB prefix must not trigger a 4 GiB allocation).
  std::string data(kFrameHeaderBytes, '\0');
  const uint32_t huge = 0xFFFFFFF0u;
  std::memcpy(data.data(), &huge, sizeof(huge));
  size_t offset = 0;
  Record out;
  EXPECT_TRUE(DecodeFrame(data, &offset, &out).IsCorruption());
  EXPECT_FALSE(FrameLooksValid(data, 0));
}

TEST(WalRecordTest, FrameLooksValidMatchesDecodeOnWholeFrames) {
  const std::string data = EncodeFrame(Reg(2, "x", "F q"));
  EXPECT_TRUE(FrameLooksValid(data, 0));
  EXPECT_FALSE(FrameLooksValid(data, 1));
  for (size_t len = 0; len < data.size(); ++len) {
    EXPECT_FALSE(FrameLooksValid(data.substr(0, len), 0));
  }
}

// ---------------------------------------------------------------------------
// Segment naming

TEST(WalSegmentTest, FileNameRoundTrip) {
  EXPECT_EQ(SegmentFileName(42), "wal-000000000042.log");
  uint64_t index = 0;
  ASSERT_TRUE(ParseSegmentFileName("wal-000000000042.log", &index));
  EXPECT_EQ(index, 42u);
  ASSERT_TRUE(ParseSegmentFileName(SegmentFileName(0), &index));
  EXPECT_EQ(index, 0u);
  // The largest index round-trips.
  EXPECT_EQ(SegmentFileName(UINT64_MAX), "wal-18446744073709551615.log");
  ASSERT_TRUE(ParseSegmentFileName(SegmentFileName(UINT64_MAX), &index));
  EXPECT_EQ(index, UINT64_MAX);
}

TEST(WalSegmentTest, FileNameOrderIsAppendOrder) {
  EXPECT_LT(SegmentFileName(9), SegmentFileName(10));
  EXPECT_LT(SegmentFileName(99), SegmentFileName(100));
}

TEST(WalSegmentTest, ParseFileNameRejectsForeignNames) {
  uint64_t index = 0;
  EXPECT_FALSE(ParseSegmentFileName("wal-abc.log", &index));
  EXPECT_FALSE(ParseSegmentFileName("wal-.log", &index));
  EXPECT_FALSE(ParseSegmentFileName("wal-000000000042.log.tmp", &index));
  EXPECT_FALSE(ParseSegmentFileName("checkpoint-000000000042.ctdb", &index));
  EXPECT_FALSE(ParseSegmentFileName("", &index));
  // Numbers past 2^64-1 are rejected, not wrapped onto another index.
  index = 7;
  EXPECT_FALSE(ParseSegmentFileName("wal-18446744073709551616.log", &index));
  EXPECT_FALSE(ParseSegmentFileName("wal-99999999999999999999.log", &index));
  EXPECT_FALSE(ParseSegmentFileName("wal-+42.log", &index));
  EXPECT_EQ(index, 7u);
}

// ---------------------------------------------------------------------------
// Segment reader: torn-tail rule

std::string SegmentWith(const std::vector<Record>& records) {
  std::string data(kSegmentMagic);
  for (const Record& r : records) data += EncodeFrame(r);
  return data;
}

TEST(WalSegmentTest, ParsesWellFormedSegment) {
  const std::vector<Record> records = {
      Reg(1, "a", "F p"),
      Reg(2, "b", "G q"),
      Record::Checkpoint(2, "checkpoint-000000000002.ctdb"),
  };
  const std::string data = SegmentWith(records);
  ParsedSegment parsed;
  ASSERT_TRUE(ParseSegment(data, &parsed).ok());
  EXPECT_EQ(parsed.records, records);
  EXPECT_EQ(parsed.valid_bytes, data.size());
  EXPECT_FALSE(parsed.torn_tail);
}

TEST(WalSegmentTest, EmptyOrSubMagicDataIsTornNotCorrupt) {
  ParsedSegment parsed;
  ASSERT_TRUE(ParseSegment("", &parsed).ok());
  EXPECT_TRUE(parsed.records.empty());
  EXPECT_FALSE(parsed.torn_tail);

  // Crash between creat() and the magic write: a short prefix of anything.
  ASSERT_TRUE(ParseSegment("CTDB", &parsed).ok());
  EXPECT_TRUE(parsed.records.empty());
  EXPECT_TRUE(parsed.torn_tail);
}

TEST(WalSegmentTest, BadMagicIsCorruption) {
  std::string data = SegmentWith({Reg(1, "a", "F p")});
  data[0] ^= 1;
  ParsedSegment parsed;
  EXPECT_TRUE(ParseSegment(data, &parsed).IsCorruption());
}

TEST(WalSegmentTest, TruncationSweepAlwaysYieldsPrefix) {
  // Cutting the segment at EVERY byte boundary must parse as a record
  // prefix with torn_tail set (or the full set at full length) — never a
  // crash, never corruption, never a non-prefix record set.
  const std::vector<Record> records = {
      Reg(1, "alpha", "F p"),
      Reg(2, "beta", "p U q"),
      Reg(3, "gamma", "G(p -> X q)"),
  };
  const std::string data = SegmentWith(records);
  for (size_t len = 0; len <= data.size(); ++len) {
    ParsedSegment parsed;
    ASSERT_TRUE(ParseSegment(data.substr(0, len), &parsed).ok())
        << "truncation to " << len << " bytes reported corruption";
    ASSERT_LE(parsed.records.size(), records.size());
    for (size_t i = 0; i < parsed.records.size(); ++i) {
      EXPECT_EQ(parsed.records[i], records[i])
          << "truncation to " << len << " produced a non-prefix";
    }
    EXPECT_EQ(parsed.torn_tail, len != data.size() &&
                                    parsed.valid_bytes != len)
        << "at length " << len;
    EXPECT_LE(parsed.valid_bytes, len);
  }
}

TEST(WalSegmentTest, GarbageTailWithoutLaterFrameIsTorn) {
  std::string data = SegmentWith({Reg(1, "a", "F p")});
  const size_t good = data.size();
  data += "\x13\x37garbage-not-a-frame";
  ParsedSegment parsed;
  ASSERT_TRUE(ParseSegment(data, &parsed).ok());
  EXPECT_TRUE(parsed.torn_tail);
  EXPECT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.valid_bytes, good);
}

TEST(WalSegmentTest, CorruptFrameBeforeValidFrameIsCorruption) {
  // Flip one payload byte of the FIRST record: its CRC fails, but a fully
  // valid frame follows — that is mid-log damage, not a torn tail.
  const std::string first = EncodeFrame(Reg(1, "a", "F p"));
  const std::string second = EncodeFrame(Reg(2, "b", "G q"));
  std::string data(kSegmentMagic);
  data += first;
  data += second;
  data[kSegmentMagic.size() + kFrameHeaderBytes] ^= 0x40;
  ParsedSegment parsed;
  EXPECT_TRUE(ParseSegment(data, &parsed).IsCorruption());
}

TEST(WalSegmentTest, MissingBytesBeforeValidFrameIsCorruption) {
  // Drop a byte from the middle of the first frame; the second frame is
  // still intact somewhere after the damage, so this must be corruption.
  const std::string first = EncodeFrame(Reg(1, "a", "F p"));
  const std::string second = EncodeFrame(Reg(2, "b", "G q"));
  std::string data(kSegmentMagic);
  data += first.substr(0, first.size() / 2);
  data += first.substr(first.size() / 2 + 1);
  data += second;
  ParsedSegment parsed;
  EXPECT_TRUE(ParseSegment(data, &parsed).IsCorruption());
}

TEST(WalSegmentTest, BitFlipSweepNeverYieldsWrongRecords) {
  // Flip every bit of a two-record segment: the result must be corruption,
  // a torn-tail prefix, or (flips in a frame's *unvalidated* spots do not
  // exist — every payload byte is CRC-covered) the original records.
  const std::vector<Record> records = {
      Reg(1, "a", "F p"),
      Reg(2, "b", "G q"),
  };
  const std::string pristine = SegmentWith(records);
  std::string data = pristine;
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<char>(1 << bit);
      ParsedSegment parsed;
      const Status status = ParseSegment(data, &parsed);
      if (status.ok()) {
        ASSERT_LE(parsed.records.size(), records.size());
        for (size_t i = 0; i < parsed.records.size(); ++i) {
          ASSERT_EQ(parsed.records[i], records[i])
              << "byte " << byte << " bit " << bit
              << " silently altered a record";
        }
      } else {
        EXPECT_TRUE(status.IsCorruption());
      }
      data[byte] ^= static_cast<char>(1 << bit);
    }
  }
  ASSERT_EQ(data, pristine);
}

}  // namespace
}  // namespace ctdb::wal
