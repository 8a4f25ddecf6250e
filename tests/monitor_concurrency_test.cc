// Thread-safety suite for the streaming monitor (DESIGN.md §15), run under
// TSan in CI (the MonitorConcurrency name is in the tsan test_filter).
// Four contracts under load:
//
//  * concurrent first opens of one snapshot build each contract version's
//    shared monitor once and step it to the verdicts a serial session
//    reaches;
//  * streams are isolated from the contract lifecycle — a session opened
//    while Register/Replace/Unregister storm the database keeps exactly
//    the contract set it pinned at open;
//  * appends to one stream serialize — concurrent appenders through the
//    registry lose no events and corrupt no verdict state;
//  * the registry survives open/append/close churn on a shared name with
//    only AlreadyExists/NotFound as outcomes, never a torn stream.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "broker/database.h"
#include "broker/durable.h"
#include "monitor/monitor.h"
#include "monitor/session.h"
#include "monitor/types.h"
#include "testing/counter_growth.h"
#include "testing/temp_dir.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "wal/wal.h"

namespace ctdb::monitor {
namespace {

using ::ctdb::testing::CounterGrowth;
using ::ctdb::testing::TempDir;


wal::DurabilityOptions FastOptions() {
  wal::DurabilityOptions options;
  options.fsync_policy = wal::FsyncPolicy::kNever;
  return options;
}

EventBatch RandomBatch(Rng* rng) {
  EventBatch batch(1 + rng->Uniform(3));
  for (std::vector<std::string>& instant : batch) {
    const size_t n = rng->Uniform(3);
    for (size_t i = 0; i < n; ++i) {
      instant.push_back("p" + std::to_string(rng->Uniform(6)));
    }
  }
  return batch;
}

TEST(MonitorConcurrencyTest, ConcurrentFirstOpensBuildOnce) {
  broker::ContractDatabase db;
  constexpr int kContracts = 12;
  for (int c = 0; c < kContracts; ++c) {
    ASSERT_TRUE(db.Register("c" + std::to_string(c),
                            StringFormat("G(p%d -> F p%d) & F p%d", c % 6,
                                         (c + 1) % 6, (c + 2) % 6))
                    .ok());
  }
  const auto snapshot = db.Snapshot();
  Rng rng(0x0FE7);
  std::vector<EventBatch> trace;
  for (int b = 0; b < 6; ++b) trace.push_back(RandomBatch(&rng));

  const CounterGrowth growth;

  constexpr size_t kThreads = 8;
  std::atomic<size_t> ready{0};
  std::vector<std::unique_ptr<StreamSession>> sessions(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      auto session = StreamSession::Open(snapshot, {});
      if (!session.ok()) return;
      for (const EventBatch& batch : trace) (*session)->Append(batch);
      sessions[t] = std::move(*session);
    });
  }
  for (std::thread& t : threads) t.join();
  const uint64_t built = growth("monitor.builds");
  if (CTDB_OBS) {
    EXPECT_EQ(built, static_cast<uint64_t>(kContracts));
  }

  auto serial = StreamSession::Open(snapshot, {});
  ASSERT_TRUE(serial.ok());
  for (const EventBatch& batch : trace) (*serial)->Append(batch);
  const StreamCloseInfo expected = (*serial)->Summary();
  for (const auto& session : sessions) {
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(session->Summary().verdicts, expected.verdicts);
    for (size_t c = 0; c < kContracts; ++c) {
      EXPECT_EQ(&session->monitor(c), &(*serial)->monitor(c));
    }
  }
}

TEST(MonitorConcurrencyTest, AppendersRaceLifecycleMutations) {
  TempDir dir("monitor");
  auto opened = broker::DurableDatabase::Open(dir.path(), FastOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  broker::DurableDatabase* db = opened->get();
  for (int c = 0; c < 4; ++c) {
    ASSERT_TRUE(db->Register("seed" + std::to_string(c),
                             StringFormat("G(p%d -> F p%d)", c, c + 1))
                    .ok());
  }

  constexpr size_t kStreams = 4;
  constexpr size_t kAppends = 40;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread mutator([&] {
    Rng rng(0xA11CE);
    uint32_t next = 4;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint32_t pick = static_cast<uint32_t>(rng.Uniform(3));
      if (pick == 0) {
        (void)db->Register("mut" + std::to_string(next++),
                           StringFormat("F p%d", static_cast<int>(rng.Uniform(6))));
      } else if (pick == 1) {
        (void)db->Replace(static_cast<uint32_t>(rng.Uniform(next)),
                          StringFormat("G !p%d", static_cast<int>(rng.Uniform(6))));
      } else {
        (void)db->Unregister(static_cast<uint32_t>(rng.Uniform(next)));
      }
    }
  });

  std::vector<std::thread> appenders;
  for (size_t t = 0; t < kStreams; ++t) {
    appenders.emplace_back([&, t] {
      Rng rng(0xBEE5 + t);
      const std::string name = "stream-" + std::to_string(t);
      auto info = db->StreamOpen(name);
      if (!info.ok()) {
        ++failures;
        return;
      }
      uint64_t events = 0;
      for (size_t i = 0; i < kAppends; ++i) {
        const EventBatch batch = RandomBatch(&rng);
        auto result = db->StreamAppend(name, batch);
        if (!result.ok()) {
          ++failures;
          return;
        }
        events += batch.size();
      }
      auto closed = db->StreamClose(name);
      if (!closed.ok() || closed->events != events ||
          closed->verdicts.size() != info->tracked) {
        ++failures;
      }
    });
  }
  for (std::thread& t : appenders) t.join();
  stop.store(true, std::memory_order_relaxed);
  mutator.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(MonitorConcurrencyTest, ConcurrentAppendsToOneStreamSerialize) {
  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("resp", "G(p0 -> F p1)").ok());
  ASSERT_TRUE(db.Register("live", "F p2").ok());
  StreamMonitor monitor;
  ASSERT_TRUE(monitor.Open("shared", db.Snapshot()).ok());

  constexpr size_t kThreads = 4;
  constexpr size_t kAppends = 50;
  std::atomic<uint64_t> appended{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xD1CE + t);
      for (size_t i = 0; i < kAppends; ++i) {
        const EventBatch batch = RandomBatch(&rng);
        auto result = monitor.Append("shared", batch);
        if (!result.ok()) {
          ++failures;
          return;
        }
        appended.fetch_add(batch.size(), std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  ASSERT_EQ(failures.load(), 0);
  auto closed = monitor.Close("shared");
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->events, appended.load());
  EXPECT_EQ(closed->verdicts.size(), 2u);
}

TEST(MonitorConcurrencyTest, OpenCloseChurnOnSharedName) {
  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("c0", "F p0").ok());
  StreamMonitor monitor;

  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 60;
  std::atomic<int> unexpected{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xF00D + t);
      for (size_t i = 0; i < kRounds; ++i) {
        auto opened = monitor.Open("churn", db.Snapshot());
        if (!opened.ok() && !opened.status().IsAlreadyExists()) ++unexpected;
        auto result = monitor.Append("churn", RandomBatch(&rng));
        if (!result.ok() && !result.status().IsNotFound()) ++unexpected;
        if (rng.Chance(0.5)) {
          auto closed = monitor.Close("churn");
          if (!closed.ok() && !closed.status().IsNotFound()) ++unexpected;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(unexpected.load(), 0);
  // Whatever the race left behind is one coherent stream at most.
  auto leftover = monitor.Close("churn");
  EXPECT_TRUE(leftover.ok() || leftover.status().IsNotFound());
  EXPECT_EQ(monitor.open_streams(), 0u);
}

}  // namespace
}  // namespace ctdb::monitor
