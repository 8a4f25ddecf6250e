// Race-hunting suite for the sharded router, run under ThreadSanitizer in
// CI (ci.yml's tsan job): concurrent registering writers, scatter-gather
// readers and checkpointers against one ShardedDatabase. Assertions are
// deliberately coarse — monotonic sizes, well-formed results, no duplicate
// global ids — because the interesting output is TSan's, not gtest's.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "shard/sharded.h"
#include "testing/temp_dir.h"
#include "wal/wal.h"

namespace ctdb::shard {
namespace {

using ::ctdb::testing::TempDir;

wal::DurabilityOptions FastOptions() {
  wal::DurabilityOptions options;
  options.fsync_policy = wal::FsyncPolicy::kNever;
  return options;
}

std::unique_ptr<ShardedDatabase> OpenOrDie(const std::string& dir,
                                           size_t shards) {
  broker::DatabaseOptions options;
  options.shards = shards;
  auto db = ShardedDatabase::Open(dir, FastOptions(), options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

std::string NthLtl(int i) {
  switch (i % 3) {
    case 0: return "F pay";
    case 1: return "G(request -> F grant)";
    default: return "pay U deliver";
  }
}

TEST(ShardedConcurrencyTest, ConcurrentRegistersAssignUniqueGlobalIds) {
  TempDir dir("sharded_tsan");
  auto db = OpenOrDie(dir.path(), 4);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 12;

  std::vector<std::vector<uint32_t>> ids(kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        auto id = db->Register(
            "w" + std::to_string(w) + "-" + std::to_string(i), NthLtl(i));
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        ids[w].push_back(*id);
      }
    });
  }
  for (auto& t : writers) t.join();

  std::set<uint32_t> unique;
  for (const auto& per_writer : ids) {
    unique.insert(per_writer.begin(), per_writer.end());
  }
  EXPECT_EQ(unique.size(), static_cast<size_t>(kWriters * kPerWriter));
  EXPECT_EQ(db->size(), unique.size());
  // Dense: concurrent routing must not leave holes in the striped space.
  EXPECT_EQ(*unique.rbegin(), unique.size() - 1);
}

TEST(ShardedConcurrencyTest, ReadersWritersAndCheckpointersInterleave) {
  TempDir dir("sharded_tsan");
  auto db = OpenOrDie(dir.path(), 2);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(db->Register("seed" + std::to_string(i), NthLtl(i)).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> reading{false};
  std::atomic<int> queries_ok{0};

  std::thread writer([&] {
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(db->Register("w" + std::to_string(i), NthLtl(i)).ok());
    }
    // A commit does its own WAL write, so the 30 registrations can finish
    // before any reader is scheduled; stop the readers only once one runs.
    while (!reading.load(std::memory_order_acquire)) std::this_thread::yield();
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        reading.store(true, std::memory_order_release);
        auto result = db->Query("F pay");
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        // Snapshot isolation per shard: a result never exceeds the total.
        ASSERT_LE(result->matches.size(), db->size());
        queries_ok.fetch_add(1, std::memory_order_relaxed);
        auto batch = db->QueryBatch({"F pay", "pay U deliver"});
        ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      }
    });
  }
  std::thread checkpointer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(db->Checkpoint().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  writer.join();
  for (auto& t : readers) t.join();
  checkpointer.join();

  EXPECT_EQ(db->size(), 36u);
  EXPECT_GT(queries_ok.load(), 0);
}

TEST(ShardedConcurrencyTest, CloseRacesWithReaders) {
  TempDir dir("sharded_tsan");
  auto db = OpenOrDie(dir.path(), 2);
  ASSERT_TRUE(db->Register("c", "F pay").ok());

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto result = db->Query("F pay");
        // Either a real answer (before the close lands) or a clean
        // Unavailable — never a crash, never a torn result.
        if (!result.ok()) {
          ASSERT_EQ(result.status().code(), StatusCode::kUnavailable);
        }
      }
    });
  }
  std::thread closer([&] { ASSERT_TRUE(db->Close().ok()); });
  for (auto& t : readers) t.join();
  closer.join();
  EXPECT_EQ(db->Query("F pay").status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace ctdb::shard
