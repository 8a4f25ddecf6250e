// Unit tests for the contract lifecycle (DESIGN.md §14): Unregister and
// Replace semantics on the in-memory database, system-period history and
// as-of time travel, retention pruning, durable round trips of the whole
// lifecycle, and the sharded router's lifecycle routing.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "broker/database.h"
#include "broker/durable.h"
#include "broker/persistence.h"
#include "shard/sharded.h"
#include "testing/temp_dir.h"

namespace ctdb {
namespace {

using broker::ContractDatabase;
using broker::QueryOptions;

std::vector<uint32_t> Matches(const ContractDatabase& db,
                              const std::string& query, uint64_t as_of = 0) {
  QueryOptions options;
  options.as_of = as_of;
  auto result = db.Query(query, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->matches : std::vector<uint32_t>{};
}

TEST(LifecycleTest, UnregisterRemovesFromLiveSet) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "F pay").ok());
  ASSERT_TRUE(db.Register("b", "F pay").ok());
  ASSERT_TRUE(db.Register("c", "G !pay").ok());
  EXPECT_EQ(db.size(), 3u);

  auto clock = db.Unregister(1);
  ASSERT_TRUE(clock.ok()) << clock.status().ToString();
  EXPECT_EQ(*clock, 4u);  // fourth mutation
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(Matches(db, "F pay"), (std::vector<uint32_t>{0}));

  // Ids are never reused: the next registration gets a fresh slot.
  auto next = db.Register("d", "F pay");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 3u);
  EXPECT_EQ(Matches(db, "F pay"), (std::vector<uint32_t>{0, 3}));
}

TEST(LifecycleTest, UnregisterDeadOrUnknownIdIsNotFound) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "F pay").ok());
  ASSERT_TRUE(db.Unregister(0).ok());
  EXPECT_TRUE(db.Unregister(0).status().IsNotFound());   // already dead
  EXPECT_TRUE(db.Unregister(7).status().IsNotFound());   // never existed
  EXPECT_TRUE(db.Replace(0, "G pay").status().IsNotFound());
}

TEST(LifecycleTest, ReplaceSupersedesSpecKeepingIdAndName) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("strict", "G !pay").ok());
  ASSERT_TRUE(db.Register("other", "F pay").ok());
  EXPECT_EQ(Matches(db, "F pay"), (std::vector<uint32_t>{1}));

  auto clock = db.Replace(0, "F pay");
  ASSERT_TRUE(clock.ok()) << clock.status().ToString();
  EXPECT_EQ(*clock, 3u);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.contract(0).name, "strict");
  EXPECT_EQ(db.contract(0).ltl_text, "F pay");
  EXPECT_EQ(db.contract(0).valid_from, 3u);
  EXPECT_EQ(Matches(db, "F pay"), (std::vector<uint32_t>{0, 1}));
}

TEST(LifecycleTest, ReplaceRejectsMalformedSpecLeavingContractIntact) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "F pay").ok());
  EXPECT_FALSE(db.Replace(0, "F ((").ok());
  EXPECT_EQ(db.contract(0).ltl_text, "F pay");
  EXPECT_EQ(db.last_sequence(), 1u);  // failed replace does not tick
  EXPECT_EQ(Matches(db, "F pay"), (std::vector<uint32_t>{0}));
}

TEST(LifecycleTest, QueryAsOfSeesEveryHistoricalState) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "F pay").ok());      // clock 1
  ASSERT_TRUE(db.Register("b", "F pay").ok());      // clock 2
  ASSERT_TRUE(db.Unregister(0).ok());               // clock 3
  ASSERT_TRUE(db.Replace(1, "G !pay").ok());        // clock 4

  EXPECT_EQ(Matches(db, "F pay", 1), (std::vector<uint32_t>{0}));
  EXPECT_EQ(Matches(db, "F pay", 2), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Matches(db, "F pay", 3), (std::vector<uint32_t>{1}));
  EXPECT_EQ(Matches(db, "F pay", 4), (std::vector<uint32_t>{}));
  EXPECT_EQ(Matches(db, "G !pay", 4), (std::vector<uint32_t>{1}));
  // as_of 0 and as_of past the clock both answer latest.
  EXPECT_EQ(Matches(db, "F pay", 0), (std::vector<uint32_t>{}));
  EXPECT_EQ(Matches(db, "F pay", 99), (std::vector<uint32_t>{}));
}

// As-of queries use the prefilter for the versions still live and check
// only history in full. At every clock from the last registration on, the
// answer (matches and witnesses) must equal a fresh database holding exactly
// the versions visible then, while unchanged versions are pruned.
TEST(LifecycleTest, AsOfPrunesUnchangedVersionsAndStaysExact) {
  std::vector<std::string> specs = {
      "G(pay -> F ship)", "F pay",        "G(order -> F ship)",
      "F ship",           "G !pay",       "G(order -> F pay)",
      "F refund",         "G(refund -> X ship)"};
  ContractDatabase db;
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(db.Register("c" + std::to_string(i), specs[i]).ok());
  }
  // The spec of every id at each clock; "" marks an unregistered id.
  std::vector<std::pair<uint64_t, std::vector<std::string>>> timeline = {
      {db.last_sequence(), specs}};
  ASSERT_TRUE(db.Replace(0, specs[0] = "G !pay").ok());
  timeline.emplace_back(db.last_sequence(), specs);
  ASSERT_TRUE(db.Unregister(3).ok());
  specs[3].clear();
  timeline.emplace_back(db.last_sequence(), specs);
  ASSERT_TRUE(db.Replace(5, specs[5] = "G(order -> F ship)").ok());
  timeline.emplace_back(db.last_sequence(), specs);

  for (const auto& [clock, visible] : timeline) {
    // Same vocabulary first, so event ids (and thus witnesses) line up.
    ContractDatabase fresh;
    for (const std::string& name : db.Snapshot()->vocabulary().names()) {
      ASSERT_TRUE(fresh.InternEvent(name).ok());
    }
    std::vector<uint32_t> ids;  // fresh id → id in `db`
    for (uint32_t id = 0; id < visible.size(); ++id) {
      if (visible[id].empty()) continue;
      ASSERT_TRUE(fresh.Register("c" + std::to_string(id), visible[id]).ok());
      ids.push_back(id);
    }
    for (const char* q : {"F pay", "F ship", "F refund", "F(order & F pay)"}) {
      QueryOptions options;
      options.collect_witnesses = true;
      auto want = fresh.Query(q, options);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      options.as_of = clock;
      auto past = db.Query(q, options);
      ASSERT_TRUE(past.ok()) << past.status().ToString();

      std::vector<uint32_t> expected;
      for (uint32_t m : want->matches) expected.push_back(ids[m]);
      EXPECT_EQ(past->matches, expected) << q << " as of " << clock;
      ASSERT_EQ(past->witnesses.size(), want->witnesses.size());
      for (size_t w = 0; w < past->witnesses.size(); ++w) {
        EXPECT_EQ(past->witnesses[w].prefix, want->witnesses[w].prefix) << q;
        EXPECT_EQ(past->witnesses[w].cycle, want->witnesses[w].cycle) << q;
      }
      EXPECT_EQ(past->stats.database_size, ids.size()) << q;
      EXPECT_LT(past->stats.candidates, past->stats.database_size)
          << q << " as of " << clock;
    }
  }
}

TEST(LifecycleTest, AsOfBelowPrunedFloorIsInvalidArgument) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "F pay").ok());   // clock 1
  ASSERT_TRUE(db.Replace(0, "G !pay").ok());     // clock 2
  ASSERT_TRUE(db.Replace(0, "F pay").ok());      // clock 3
  db.PruneHistory(2);

  QueryOptions options;
  options.as_of = 1;
  EXPECT_TRUE(db.Query("F pay", options).status().IsInvalidArgument());
  // At and above the floor, history still answers.
  EXPECT_EQ(Matches(db, "G !pay", 2), (std::vector<uint32_t>{0}));
  EXPECT_EQ(Matches(db, "F pay", 3), (std::vector<uint32_t>{0}));
}

TEST(LifecycleTest, AsOfWitnessesSatisfyTheQuery) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "F pay").ok());
  ASSERT_TRUE(db.Replace(0, "G !pay").ok());

  QueryOptions options;
  options.as_of = 1;
  options.collect_witnesses = true;
  auto result = db.Query("F pay", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->matches, (std::vector<uint32_t>{0}));
  ASSERT_EQ(result->witnesses.size(), 1u);
  EXPECT_FALSE(result->witnesses[0].prefix.empty() &&
               result->witnesses[0].cycle.empty());
}

TEST(LifecycleTest, PersistenceRoundTripsHistoryAndClock) {
  testing::TempDir dir("lcpersist");
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "F pay").ok());
  ASSERT_TRUE(db.Register("b", "G !pay").ok());
  ASSERT_TRUE(db.Unregister(0).ok());
  ASSERT_TRUE(db.Replace(1, "F pay").ok());

  const std::string path = dir.file("image.ctdb");
  ASSERT_TRUE(broker::SaveDatabaseToFile(db, path).ok());
  auto loaded = broker::LoadDatabaseFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ((*loaded)->size(), db.size());
  EXPECT_EQ((*loaded)->last_sequence(), db.last_sequence());
  EXPECT_EQ((*loaded)->op_count(), db.op_count());
  for (uint64_t s = 1; s <= db.last_sequence(); ++s) {
    for (const char* q : {"F pay", "G !pay"}) {
      EXPECT_EQ(Matches(**loaded, q, s), Matches(db, q, s))
          << "as_of=" << s << " query " << q;
    }
  }
}

TEST(LifecycleTest, DurableLifecycleSurvivesReopen) {
  testing::TempDir dir("lcdurable");
  uint64_t final_clock = 0;
  {
    auto db = broker::DurableDatabase::Open(dir.path() + "/wal");
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Register("a", "F pay").ok());
    ASSERT_TRUE((*db)->Register("b", "F pay").ok());
    ASSERT_TRUE((*db)->Unregister(0).ok());
    auto clock = (*db)->Replace(1, "G !pay");
    ASSERT_TRUE(clock.ok());
    final_clock = *clock;
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto db = broker::DurableDatabase::Open(dir.path() + "/wal");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->size(), 1u);
  EXPECT_EQ((*db)->last_sequence(), final_clock);
  auto latest = (*db)->Query("G !pay");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->matches, (std::vector<uint32_t>{1}));
  // Recovery replays logged clocks, so time travel survives the reopen.
  auto historic = (*db)->QueryAsOf(2, "F pay");
  ASSERT_TRUE(historic.ok());
  EXPECT_EQ(historic->matches, (std::vector<uint32_t>{0, 1}));
  EXPECT_TRUE((*db)->Close().ok());
}

TEST(LifecycleTest, CheckpointRetentionRaisesTheAsOfFloor) {
  testing::TempDir dir("lcretain");
  broker::DatabaseOptions options;
  options.retention.keep_history_seqs = 1;
  auto db = broker::DurableDatabase::Open(dir.path() + "/wal", {}, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Register("a", "F pay").ok());   // clock 1
  ASSERT_TRUE((*db)->Replace(0, "G !pay").ok());     // clock 2
  ASSERT_TRUE((*db)->Replace(0, "F pay").ok());      // clock 3
  ASSERT_TRUE((*db)->Checkpoint().ok());             // prunes below 3 - 1

  EXPECT_TRUE((*db)->QueryAsOf(1, "F pay").status().IsInvalidArgument());
  auto kept = (*db)->QueryAsOf(2, "G !pay");
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(kept->matches, (std::vector<uint32_t>{0}));
  EXPECT_TRUE((*db)->Close().ok());
}

TEST(LifecycleTest, ShardedRouterRoutesLifecycleAndMergesAsOf) {
  testing::TempDir dir("lcshard");
  broker::DatabaseOptions options;
  options.shards = 2;
  auto db = shard::ShardedDatabase::Open(dir.path() + "/db", {}, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  std::vector<uint32_t> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = (*db)->Register("s" + std::to_string(i), "F pay");
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  EXPECT_EQ((*db)->last_sequence(), 4u);

  auto gone = (*db)->Unregister(ids[1]);           // clock 5
  ASSERT_TRUE(gone.ok()) << gone.status().ToString();
  EXPECT_EQ(*gone, 5u);
  auto swapped = (*db)->Replace(ids[2], "G !pay");  // clock 6
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(*swapped, 6u);

  EXPECT_TRUE((*db)->Unregister(ids[1]).status().IsNotFound());
  EXPECT_TRUE((*db)->Replace(99, "F pay").status().IsNotFound());

  auto latest = (*db)->Query("F pay");
  ASSERT_TRUE(latest.ok());
  std::vector<uint32_t> want = {ids[0], ids[3]};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(latest->matches, want);

  // Scatter-gather as_of: every shard answers at the same global clock.
  auto before = (*db)->QueryAsOf(4, "F pay");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  std::vector<uint32_t> all = ids;
  std::sort(all.begin(), all.end());
  EXPECT_EQ(before->matches, all);
  auto mid = (*db)->QueryAsOf(5, "F pay");
  ASSERT_TRUE(mid.ok());
  std::vector<uint32_t> without = {ids[0], ids[2], ids[3]};
  std::sort(without.begin(), without.end());
  EXPECT_EQ(mid->matches, without);
  EXPECT_TRUE((*db)->Close().ok());
}

}  // namespace
}  // namespace ctdb
