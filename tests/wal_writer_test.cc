// Tests for the group-commit log writer: durability of acknowledged
// appends, ordering, rotation (by size and on request), every fsync policy,
// how appends form groups, Close, and checkpoint-driven segment deletion.
// Runs under TSan in CI (the `Wal` filter) — the concurrency tests here are
// the data-race canary for the leader hand-off.

#include "wal/writer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "testing/counter_growth.h"
#include "testing/crash.h"
#include "testing/temp_dir.h"
#include "util/file_util.h"
#include "wal/record.h"
#include "wal/segment.h"
#include "wal/wal.h"

namespace ctdb::wal {
namespace {

using ::ctdb::testing::CounterGrowth;
using ::ctdb::testing::HoldFirstWrite;
using ::ctdb::testing::TempDir;

/// Reads and parses every segment in `dir` in index order, concatenating
/// their records.
std::vector<Record> ReadLog(const std::string& dir) {
  auto names = util::ListDir(dir);
  EXPECT_TRUE(names.ok()) << names.status().ToString();
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : *names) {
    uint64_t index = 0;
    if (ParseSegmentFileName(name, &index)) segments.emplace_back(index, name);
  }
  std::sort(segments.begin(), segments.end());
  std::vector<Record> records;
  for (const auto& [index, name] : segments) {
    auto data = util::ReadFileToString(dir + "/" + name);
    EXPECT_TRUE(data.ok()) << data.status().ToString();
    ParsedSegment parsed;
    const Status status = ParseSegment(*data, &parsed);
    EXPECT_TRUE(status.ok()) << name << ": " << status.ToString();
    records.insert(records.end(), parsed.records.begin(),
                   parsed.records.end());
  }
  return records;
}

/// The writer never interprets record contents; the tests only need
/// distinct, mutation-typed frames, so clock == sequence and contract_id ==
/// sequence keeps the fixtures terse.
Record Reg(uint64_t seq, std::string name, std::string ltl) {
  return Record::Register(seq, seq, static_cast<uint32_t>(seq),
                          std::move(name), std::move(ltl));
}

DurabilityOptions FastOptions(FsyncPolicy policy) {
  DurabilityOptions options;
  options.fsync_policy = policy;
  return options;
}

TEST(WalWriterTest, AppendReadBackRoundTrip) {
  for (const FsyncPolicy policy : {FsyncPolicy::kAlways, FsyncPolicy::kNever}) {
    TempDir dir("walwriter");
    auto writer = LogWriter::Open(dir.path(), 1, FastOptions(policy));
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    std::vector<Record> written;
    for (uint64_t seq = 1; seq <= 20; ++seq) {
      written.push_back(
          Reg(seq, "c" + std::to_string(seq), "F p"));
      ASSERT_TRUE((*writer)->Append(written.back()).ok())
          << FsyncPolicyName(policy);
    }
    ASSERT_TRUE((*writer)->Close().ok());
    EXPECT_EQ(ReadLog(dir.path()), written) << FsyncPolicyName(policy);
  }
}

TEST(WalWriterTest, AcknowledgedAppendIsOnDiskBeforeClose) {
  // Durability must not depend on Close: once Append returns Ok the record
  // parses out of the segment file even while the writer is still open.
  TempDir dir("walwriter");
  auto writer = LogWriter::Open(dir.path(), 1, FastOptions(FsyncPolicy::kAlways));
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const Record record = Reg(1, "c", "F p");
  ASSERT_TRUE((*writer)->Append(record).ok());
  const std::vector<Record> on_disk = ReadLog(dir.path());
  ASSERT_EQ(on_disk.size(), 1u);
  EXPECT_EQ(on_disk[0], record);
}

TEST(WalWriterTest, ConcurrentAppendersAllDurableInSequenceOrder) {
  TempDir dir("walwriter");
  auto writer = LogWriter::Open(dir.path(), 1, FastOptions(FsyncPolicy::kAlways));
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  // Mimic the broker: a shared counter assigns sequences (the broker holds
  // its append mutex across apply+enqueue so the enqueue happens in
  // sequence order; here the fetch_add and the Append race, so we only
  // check the SET, not the order).
  std::atomic<uint64_t> next{1};
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t seq = next.fetch_add(1);
        const Status status = (*writer)->Append(
            Reg(seq, "c" + std::to_string(seq), "F p"));
        if (!status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE((*writer)->Close().ok());

  std::vector<Record> records = ReadLog(dir.path());
  ASSERT_EQ(records.size(), static_cast<size_t>(kThreads * kPerThread));
  std::vector<bool> seen(kThreads * kPerThread + 1, false);
  for (const Record& r : records) {
    ASSERT_GE(r.sequence, 1u);
    ASSERT_LE(r.sequence, static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_FALSE(seen[r.sequence]) << "sequence " << r.sequence << " twice";
    seen[r.sequence] = true;
  }
}

TEST(WalWriterTest, RotatesWhenSegmentExceedsSizeThreshold) {
  TempDir dir("walwriter");
  DurabilityOptions options = FastOptions(FsyncPolicy::kNever);
  options.segment_bytes = 256;
  auto writer = LogWriter::Open(dir.path(), 1, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  std::vector<Record> written;
  for (uint64_t seq = 1; seq <= 40; ++seq) {
    written.push_back(Reg(seq, "contract-" + std::to_string(seq),
                                       "G(p -> F q)"));
    ASSERT_TRUE((*writer)->Append(written.back()).ok());
  }
  EXPECT_GT((*writer)->current_segment_index(), 1u);
  ASSERT_TRUE((*writer)->Close().ok());

  auto names = util::ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  size_t segment_files = 0;
  for (const std::string& name : *names) {
    uint64_t index = 0;
    if (ParseSegmentFileName(name, &index)) ++segment_files;
  }
  EXPECT_GT(segment_files, 1u);
  // Rotation must not lose or reorder anything.
  EXPECT_EQ(ReadLog(dir.path()), written);
}

TEST(WalWriterTest, ExplicitRotationSealsSegment) {
  TempDir dir("walwriter");
  auto writer = LogWriter::Open(dir.path(), 5, FastOptions(FsyncPolicy::kNever));
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->Append(Reg(1, "a", "F p")).ok());
  EXPECT_EQ((*writer)->current_segment_index(), 5u);
  ASSERT_TRUE((*writer)->RotateSegment().ok());
  EXPECT_EQ((*writer)->current_segment_index(), 6u);

  const auto sealed = (*writer)->SealedSegments();
  ASSERT_EQ(sealed.size(), 1u);
  EXPECT_EQ(sealed[0].index, 5u);
  EXPECT_EQ(sealed[0].max_sequence, 1u);

  ASSERT_TRUE((*writer)->Append(Reg(2, "b", "F q")).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  const std::vector<Record> records = ReadLog(dir.path());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].sequence, 1u);
  EXPECT_EQ(records[1].sequence, 2u);
}

TEST(WalWriterTest, DeleteSegmentsCoveredByRemovesOnlyCoveredFiles) {
  TempDir dir("walwriter");
  auto writer = LogWriter::Open(dir.path(), 1, FastOptions(FsyncPolicy::kNever));
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->Append(Reg(1, "a", "F p")).ok());
  ASSERT_TRUE((*writer)->Append(Reg(2, "b", "F q")).ok());
  ASSERT_TRUE((*writer)->RotateSegment().ok());
  ASSERT_TRUE((*writer)->Append(Reg(3, "c", "F r")).ok());
  ASSERT_TRUE((*writer)->RotateSegment().ok());

  // Covered by sequence 2: segment 1 (max seq 2) but not segment 2 (seq 3).
  ASSERT_TRUE((*writer)->DeleteSegmentsCoveredBy(2).ok());
  auto gone = util::ReadFileToString(dir.file(SegmentFileName(1)));
  EXPECT_TRUE(gone.status().IsNotFound());
  auto kept = util::ReadFileToString(dir.file(SegmentFileName(2)));
  EXPECT_TRUE(kept.ok());

  ASSERT_TRUE((*writer)->Close().ok());
  const std::vector<Record> records = ReadLog(dir.path());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].sequence, 3u);
}

TEST(WalWriterTest, AppendAfterCloseFails) {
  TempDir dir("walwriter");
  auto writer = LogWriter::Open(dir.path(), 1, FastOptions(FsyncPolicy::kNever));
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_FALSE((*writer)->Append(Reg(1, "a", "F p")).ok());
  EXPECT_FALSE((*writer)->RotateSegment().ok());
  // Close is idempotent.
  EXPECT_TRUE((*writer)->Close().ok());
}

TEST(WalWriterTest, RefusesToClobberExistingSegment) {
  TempDir dir("walwriter");
  ASSERT_TRUE(util::WriteFileAtomic(dir.file(SegmentFileName(1)), "junk").ok());
  auto writer = LogWriter::Open(dir.path(), 1, FastOptions(FsyncPolicy::kNever));
  EXPECT_FALSE(writer.ok());
  // The pre-existing file is untouched.
  auto data = util::ReadFileToString(dir.file(SegmentFileName(1)));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "junk");
}

TEST(WalWriterTest, TracksBytesSinceCheckpoint) {
  TempDir dir("walwriter");
  auto writer = LogWriter::Open(dir.path(), 1, FastOptions(FsyncPolicy::kNever));
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_EQ((*writer)->bytes_since_checkpoint(), 0u);
  ASSERT_TRUE((*writer)->Append(Reg(1, "a", "F p")).ok());
  EXPECT_GT((*writer)->bytes_since_checkpoint(), 0u);
  (*writer)->ResetBytesSinceCheckpoint();
  EXPECT_EQ((*writer)->bytes_since_checkpoint(), 0u);
  ASSERT_TRUE((*writer)->Close().ok());
}

TEST(WalWriterTest, RecordsEnqueuedBeforeAnyWaitFormOneGroup) {
  TempDir dir("walwriter");
  auto writer = LogWriter::Open(dir.path(), 1, FastOptions(FsyncPolicy::kAlways));
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const CounterGrowth growth;
  std::vector<Record> written;
  std::vector<uint64_t> tickets;
  for (uint64_t seq = 1; seq <= 100; ++seq) {
    written.push_back(Reg(seq, "c" + std::to_string(seq), "F p"));
    auto ticket = (*writer)->Enqueue({&written.back(), 1});
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(*ticket);
  }
  // Enqueue does no I/O: nothing is written until someone waits.
  EXPECT_TRUE(ReadLog(dir.path()).empty());
  // The first waiter leads one group holding everything queued; the others
  // find their records already durable.
  EXPECT_TRUE((*writer)->Wait(tickets.back()).ok());
  for (const uint64_t ticket : tickets) {
    EXPECT_TRUE((*writer)->Wait(ticket).ok());
  }
  if (CTDB_OBS) {
    EXPECT_EQ(growth("wal.appends"), 100u);
    EXPECT_EQ(growth("wal.groups"), 1u);
    EXPECT_EQ(growth("wal.fsyncs"), 1u);
  }
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ(ReadLog(dir.path()), written);
}

TEST(WalWriterTest, AppendersArrivingDuringAWriteShareTheNextGroup) {
  TempDir dir("walwriter");
  auto writer = LogWriter::Open(dir.path(), 1, FastOptions(FsyncPolicy::kAlways));
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const CounterGrowth growth;
  HoldFirstWrite hold("wal.writer.after_write");

  // The first appender leads a group of one and is held inside its write.
  std::thread leader([&] {
    EXPECT_TRUE((*writer)->Append(Reg(1, "lead", "F p")).ok());
  });
  EXPECT_TRUE(hold.AwaitHeld());

  // Meanwhile every follower enqueues and waits behind the busy leader.
  constexpr int kFollowers = 4;
  std::atomic<int> enqueued{0};
  std::vector<std::thread> followers;
  for (int i = 0; i < kFollowers; ++i) {
    followers.emplace_back([&, i] {
      const Record record = Reg(2 + i, "follow" + std::to_string(i), "F q");
      auto ticket = (*writer)->Enqueue({&record, 1});
      enqueued.fetch_add(1);
      ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
      EXPECT_TRUE((*writer)->Wait(*ticket).ok());
    });
  }
  while (enqueued.load() < kFollowers) std::this_thread::yield();
  hold.Release();
  leader.join();
  for (std::thread& t : followers) t.join();

  // One group for the leader, exactly one more for all the followers.
  if (CTDB_OBS) {
    EXPECT_EQ(growth("wal.appends"), 1u + kFollowers);
    EXPECT_EQ(growth("wal.groups"), 2u);
    EXPECT_EQ(growth("wal.fsyncs"), 2u);
  }
  ASSERT_TRUE((*writer)->Close().ok());
  const std::vector<Record> records = ReadLog(dir.path());
  ASSERT_EQ(records.size(), 1u + kFollowers);
  EXPECT_EQ(records[0].name, "lead");
}

TEST(WalWriterTest, CloseWritesEverythingEnqueuedBeforeIt) {
  TempDir dir("walwriter");
  auto writer = LogWriter::Open(dir.path(), 1, FastOptions(FsyncPolicy::kAlways));
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const Record record = Reg(1, "a", "F p");
  auto ticket = (*writer)->Enqueue({&record, 1});
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_TRUE((*writer)->Wait(*ticket).ok());
  const Record late = Reg(2, "b", "F q");
  EXPECT_TRUE((*writer)->Enqueue({&late, 1}).status().IsUnavailable());
  EXPECT_EQ(ReadLog(dir.path()), std::vector<Record>{record});
}

}  // namespace
}  // namespace ctdb::wal
