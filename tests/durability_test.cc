// End-to-end tests for the durable broker: register/close/recover round
// trips, checkpoint-driven log truncation, fallback past corrupt
// checkpoints, torn-tail truncation, sequence-gap detection, automatic
// checkpoints, a close racing a commit, and the crash-safe
// SaveDatabaseToFile.

#include "broker/durable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "broker/persistence.h"
#include "testing/counter_growth.h"
#include "testing/crash.h"
#include "testing/temp_dir.h"
#include "util/file_util.h"
#include "wal/segment.h"
#include "wal/wal.h"

namespace ctdb::broker {
namespace {

using ::ctdb::testing::CounterGrowth;
using ::ctdb::testing::TempDir;

wal::DurabilityOptions FastOptions() {
  wal::DurabilityOptions options;
  options.fsync_policy = wal::FsyncPolicy::kNever;  // tests survive exit()
  return options;
}

std::string NthName(int i) { return "contract-" + std::to_string(i); }
std::string NthLtl(int i) {
  // Distinct but always-parseable formulas over a small shared vocabulary.
  switch (i % 3) {
    case 0: return "F pay";
    case 1: return "G(request -> F grant)";
    default: return "pay U deliver";
  }
}

void RegisterN(DurableDatabase* db, int n, int offset = 0) {
  for (int i = offset; i < offset + n; ++i) {
    auto id = db->Register(NthName(i), NthLtl(i));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(*id, static_cast<uint32_t>(i));
  }
}

void ExpectContracts(const DurableDatabase& db, int n) {
  ASSERT_EQ(db.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(db.contract(static_cast<uint32_t>(i)).name, NthName(i));
    EXPECT_EQ(db.contract(static_cast<uint32_t>(i)).ltl_text, NthLtl(i));
  }
}

TEST(DurabilityTest, FreshDirectoryStartsEmpty) {
  TempDir dir("durable");
  auto db = DurableDatabase::Open(dir.file("wal"), FastOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->size(), 0u);
  EXPECT_EQ((*db)->recovery_stats().last_sequence, 0u);
  EXPECT_EQ((*db)->recovery_stats().next_segment_index, 1u);
}

TEST(DurabilityTest, RegisterCloseRecoverRoundTrip) {
  TempDir dir("durable");
  {
    auto db = DurableDatabase::Open(dir.path(), FastOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    RegisterN(db->get(), 10);
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto db = DurableDatabase::Open(dir.path(), FastOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ExpectContracts(**db, 10);
  EXPECT_EQ((*db)->recovery_stats().records_replayed, 10u);
  EXPECT_FALSE((*db)->recovery_stats().tail_truncated);

  // Recovered contracts answer queries like freshly registered ones.
  auto result = (*db)->Query("F pay");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->matches.empty());

  // And the log keeps extending across generations.
  RegisterN(db->get(), 5, /*offset=*/10);
  ASSERT_TRUE((*db)->Close().ok());
  auto again = DurableDatabase::Open(dir.path(), FastOptions());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ExpectContracts(**again, 15);
}

TEST(DurabilityTest, RegisterBatchIsDurable) {
  TempDir dir("durable");
  {
    auto db = DurableDatabase::Open(dir.path(), FastOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    std::vector<ContractDatabase::BatchEntry> entries;
    for (int i = 0; i < 8; ++i) entries.push_back({NthName(i), NthLtl(i)});
    auto ids = (*db)->RegisterBatch(entries);
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    ASSERT_EQ(ids->size(), 8u);
  }  // destructor closes
  auto db = DurableDatabase::Open(dir.path(), FastOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ExpectContracts(**db, 8);
}

TEST(DurabilityTest, RegisterBatchIsOneGroupAndOneFsync) {
  // The batch's records are enqueued in one call, so they are written and
  // fsynced together.
  TempDir dir("durable");
  wal::DurabilityOptions options;
  options.fsync_policy = wal::FsyncPolicy::kAlways;
  auto db = DurableDatabase::Open(dir.path(), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::vector<ContractDatabase::BatchEntry> entries;
  for (int i = 0; i < 16; ++i) entries.push_back({NthName(i), NthLtl(i)});
  const CounterGrowth growth;
  auto ids = (*db)->RegisterBatch(entries);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  if (CTDB_OBS) {
    EXPECT_EQ(growth("wal.appends"), 16u);
    EXPECT_EQ(growth("wal.groups"), 1u);
    EXPECT_EQ(growth("wal.fsyncs"), 1u);
  }
  ASSERT_TRUE((*db)->Close().ok());
  auto recovered = DurableDatabase::Open(dir.path(), FastOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectContracts(**recovered, 16);
}

TEST(DurabilityTest, RegisterAfterCloseFails) {
  TempDir dir("durable");
  auto db = DurableDatabase::Open(dir.path(), FastOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Close().ok());
  EXPECT_FALSE((*db)->Register("late", "F pay").ok());
}

TEST(DurabilityTest, CloseWaitsForAnAppliedMutationToReachTheLog) {
  // A commit that passed the open check and applied its mutation must reach
  // the log even when Close runs meanwhile, or memory and disk disagree.
  // The unregister is held just after its apply while another thread
  // closes the database.
  TempDir dir("durable");
  {
    auto db = DurableDatabase::Open(dir.path(), FastOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    RegisterN(db->get(), 1);
    testing::HoldFirstWrite hold("durable.unregister.after_apply");
    Result<uint64_t> unregistered = Status::Internal("not run");
    std::thread mutator([&] { unregistered = (*db)->Unregister(0); });
    EXPECT_TRUE(hold.AwaitHeld());
    auto closed =
        std::async(std::launch::async, [&] { return (*db)->Close(); });
    EXPECT_EQ(closed.wait_for(std::chrono::milliseconds(500)),
              std::future_status::timeout)
        << "Close finished while a commit was between apply and enqueue";
    hold.Release();
    mutator.join();
    EXPECT_TRUE(closed.get().ok());
    EXPECT_TRUE(unregistered.ok()) << unregistered.status().ToString();
    EXPECT_EQ((*db)->size(), 0u);
  }
  auto reopened = DurableDatabase::Open(dir.path(), FastOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), 0u);
}

TEST(DurabilityTest, CheckpointTruncatesLogAndSpeedsRecovery) {
  TempDir dir("durable");
  {
    auto db = DurableDatabase::Open(dir.path(), FastOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    RegisterN(db->get(), 12);
    ASSERT_TRUE((*db)->Checkpoint().ok());
    RegisterN(db->get(), 4, /*offset=*/12);
    ASSERT_TRUE((*db)->Close().ok());
  }
  // The checkpoint file exists and the pre-checkpoint segment is gone.
  auto names = util::ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  EXPECT_NE(std::find(names->begin(), names->end(), CheckpointFileName(12)),
            names->end());
  uint64_t idx = 0;
  for (const std::string& name : *names) {
    if (wal::ParseSegmentFileName(name, &idx)) {
      EXPECT_GT(idx, 1u) << name << " should have been truncated";
    }
  }

  RecoveryStats stats;
  auto recovered = RecoverDatabase(dir.path(), {}, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->size(), 16u);
  EXPECT_EQ(stats.checkpoint_sequence, 12u);
  EXPECT_EQ(stats.checkpoint_file, CheckpointFileName(12));
  EXPECT_EQ(stats.records_replayed, 4u);
  EXPECT_EQ(stats.checkpoints_skipped, 0u);
}

TEST(DurabilityTest, SecondCheckpointDeletesTheFirst) {
  TempDir dir("durable");
  auto db = DurableDatabase::Open(dir.path(), FastOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  RegisterN(db->get(), 3);
  ASSERT_TRUE((*db)->Checkpoint().ok());
  RegisterN(db->get(), 3, /*offset=*/3);
  ASSERT_TRUE((*db)->Checkpoint().ok());
  ASSERT_TRUE((*db)->Close().ok());

  auto names = util::ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(std::find(names->begin(), names->end(), CheckpointFileName(3)),
            names->end())
      << "superseded checkpoint still on disk";
  EXPECT_NE(std::find(names->begin(), names->end(), CheckpointFileName(6)),
            names->end());

  auto recovered = DurableDatabase::Open(dir.path(), FastOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectContracts(**recovered, 6);
  EXPECT_EQ((*recovered)->recovery_stats().checkpoint_sequence, 6u);
}

TEST(DurabilityTest, BogusNewerCheckpointIsSkipped) {
  TempDir dir("durable");
  {
    auto db = DurableDatabase::Open(dir.path(), FastOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    RegisterN(db->get(), 5);
    ASSERT_TRUE((*db)->Close().ok());
  }
  // A corrupt "newer" checkpoint must not poison recovery: it is skipped
  // and the full log replay still reconstructs everything.
  ASSERT_TRUE(
      util::WriteFileAtomic(dir.file(CheckpointFileName(99)), "garbage").ok());
  RecoveryStats stats;
  auto db = RecoverDatabase(dir.path(), {}, &stats);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->size(), 5u);
  EXPECT_EQ(stats.checkpoints_skipped, 1u);
  EXPECT_EQ(stats.checkpoint_sequence, 0u);
  EXPECT_EQ(stats.records_replayed, 5u);
}

TEST(DurabilityTest, CheckpointWithWrongSizeIsSkipped) {
  // A checkpoint image that loads but does not match the sequence its file
  // name claims (e.g. a partially effective rename juggle) is rejected.
  TempDir dir("durable");
  {
    auto db = DurableDatabase::Open(dir.path(), FastOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    RegisterN(db->get(), 4);
    ASSERT_TRUE((*db)->Close().ok());
  }
  {
    auto db = RecoverDatabase(dir.path());
    ASSERT_TRUE(db.ok());
    // Save a 4-contract image under a name claiming 7 registrations.
    ASSERT_TRUE(
        SaveDatabaseToFile(**db, dir.file(CheckpointFileName(7))).ok());
  }
  RecoveryStats stats;
  auto db = RecoverDatabase(dir.path(), {}, &stats);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->size(), 4u);
  EXPECT_EQ(stats.checkpoints_skipped, 1u);
}

TEST(DurabilityTest, TornTailRecoversAckedPrefix) {
  TempDir dir("durable");
  {
    auto db = DurableDatabase::Open(dir.path(), FastOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    RegisterN(db->get(), 6);
    ASSERT_TRUE((*db)->Close().ok());
  }
  // Garbage after the last record: recovery truncates and keeps all 6.
  {
    std::ofstream out(dir.file(wal::SegmentFileName(1)),
                      std::ios::app | std::ios::binary);
    out << "\x01\x02partial frame junk";
  }
  RecoveryStats stats;
  auto db = RecoverDatabase(dir.path(), {}, &stats);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->size(), 6u);
  EXPECT_TRUE(stats.tail_truncated);
  // The writer must not resume inside the torn file.
  EXPECT_EQ(stats.next_segment_index, 2u);
}

TEST(DurabilityTest, TruncatedTailDropsOnlyUnackedSuffix) {
  TempDir dir("durable");
  {
    auto db = DurableDatabase::Open(dir.path(), FastOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    RegisterN(db->get(), 6);
    ASSERT_TRUE((*db)->Close().ok());
  }
  const std::string segment = dir.file(wal::SegmentFileName(1));
  auto data = util::ReadFileToString(segment);
  ASSERT_TRUE(data.ok());
  // Cut into the middle of the last frame (simulating a torn final write).
  ASSERT_TRUE(util::WriteFileAtomic(segment,
                                    data->substr(0, data->size() - 5)).ok());
  RecoveryStats stats;
  auto db = RecoverDatabase(dir.path(), {}, &stats);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->size(), 5u);
  EXPECT_TRUE(stats.tail_truncated);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ((*db)->contract(static_cast<uint32_t>(i)).name, NthName(i));
  }
}

TEST(DurabilityTest, MidLogCorruptionIsReportedNotSwallowed) {
  TempDir dir("durable");
  {
    auto db = DurableDatabase::Open(dir.path(), FastOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    RegisterN(db->get(), 6);
    ASSERT_TRUE((*db)->Close().ok());
  }
  const std::string segment = dir.file(wal::SegmentFileName(1));
  auto data = util::ReadFileToString(segment);
  ASSERT_TRUE(data.ok());
  // Flip a byte in the FIRST record's payload; later records stay valid, so
  // this is mid-log damage and must be Corruption, not a 0-contract "ok".
  std::string corrupted = *data;
  corrupted[wal::kSegmentMagic.size() + wal::kFrameHeaderBytes + 2] ^= 0x10;
  ASSERT_TRUE(util::WriteFileAtomic(segment, corrupted).ok());
  auto db = RecoverDatabase(dir.path());
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
}

TEST(DurabilityTest, MissingMiddleSegmentIsCorruption) {
  TempDir dir("durable");
  wal::DurabilityOptions options = FastOptions();
  options.segment_bytes = 128;  // force several segments
  {
    auto db = DurableDatabase::Open(dir.path(), options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    RegisterN(db->get(), 12);
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto names = util::ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  std::vector<uint64_t> indices;
  uint64_t idx = 0;
  for (const std::string& name : *names) {
    if (wal::ParseSegmentFileName(name, &idx)) indices.push_back(idx);
  }
  std::sort(indices.begin(), indices.end());
  ASSERT_GE(indices.size(), 3u) << "expected rotation to several segments";
  // Removing a middle segment rips acknowledged records out of the middle
  // of the log; the sequence-continuity check must refuse to recover.
  ASSERT_TRUE(util::RemoveFileIfExists(
                  dir.file(wal::SegmentFileName(indices[1]))).ok());
  auto db = RecoverDatabase(dir.path());
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
}

TEST(DurabilityTest, AutomaticCheckpointTriggersOnLogGrowth) {
  TempDir dir("durable");
  wal::DurabilityOptions options = FastOptions();
  options.checkpoint_log_bytes = 1;  // every registration crosses it
  auto db = DurableDatabase::Open(dir.path(), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  RegisterN(db->get(), 3);
  // The checkpoint runs on a background thread; poll for its file.
  bool seen = false;
  for (int i = 0; i < 200 && !seen; ++i) {
    auto names = util::ListDir(dir.path());
    ASSERT_TRUE(names.ok());
    for (const std::string& name : *names) {
      uint64_t seq = 0;
      if (ParseCheckpointFileName(name, &seq)) seen = true;
    }
    if (!seen) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(seen) << "no automatic checkpoint within 2s";
  ASSERT_TRUE((*db)->Close().ok());
  auto recovered = DurableDatabase::Open(dir.path(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectContracts(**recovered, 3);
}

TEST(DurabilityTest, ConcurrentRegistrationsAllRecover) {
  TempDir dir("durable");
  {
    auto db = DurableDatabase::Open(dir.path(), FastOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&db, t] {
        for (int i = 0; i < kPerThread; ++i) {
          auto id = (*db)->Register(
              "t" + std::to_string(t) + "-" + std::to_string(i), "F pay");
          EXPECT_TRUE(id.ok()) << id.status().ToString();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ((*db)->size(), static_cast<size_t>(kThreads * kPerThread));
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto db = DurableDatabase::Open(dir.path(), FastOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->size(), 40u);
}

TEST(DurabilityTest, CheckpointFileNameRoundTrip) {
  EXPECT_EQ(CheckpointFileName(12), "checkpoint-000000000012.ctdb");
  uint64_t seq = 0;
  ASSERT_TRUE(ParseCheckpointFileName("checkpoint-000000000012.ctdb", &seq));
  EXPECT_EQ(seq, 12u);
  EXPECT_FALSE(ParseCheckpointFileName("checkpoint-12.tmp", &seq));
  EXPECT_FALSE(ParseCheckpointFileName("wal-000000000012.log", &seq));
  EXPECT_FALSE(ParseCheckpointFileName("checkpoint-.ctdb", &seq));
  // The largest sequence parses; one past it is rejected, not wrapped.
  ASSERT_TRUE(
      ParseCheckpointFileName("checkpoint-18446744073709551615.ctdb", &seq));
  EXPECT_EQ(seq, UINT64_MAX);
  EXPECT_EQ(CheckpointFileName(UINT64_MAX),
            "checkpoint-18446744073709551615.ctdb");
  seq = 7;
  EXPECT_FALSE(
      ParseCheckpointFileName("checkpoint-18446744073709551616.ctdb", &seq));
  EXPECT_FALSE(
      ParseCheckpointFileName("checkpoint-18446744073709551617.ctdb", &seq));
  EXPECT_FALSE(
      ParseCheckpointFileName("checkpoint-99999999999999999999.ctdb", &seq));
  EXPECT_EQ(seq, 7u);
}

TEST(DurabilityTest, SaveDatabaseToFileIsAtomicAndLeavesNoTemp) {
  TempDir dir("durable");
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "F pay").ok());
  const std::string path = dir.file("image.ctdb");
  ASSERT_TRUE(SaveDatabaseToFile(db, path).ok());
  auto loaded = LoadDatabaseFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->size(), 1u);

  // Overwrite with a bigger database: the temp file must be gone and the
  // image must be the complete new one.
  ASSERT_TRUE(db.Register("b", "G(request -> F grant)").ok());
  ASSERT_TRUE(SaveDatabaseToFile(db, path).ok());
  EXPECT_TRUE(util::ReadFileToString(path + ".tmp").status().IsNotFound());
  loaded = LoadDatabaseFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->size(), 2u);
}

}  // namespace
}  // namespace ctdb::broker
