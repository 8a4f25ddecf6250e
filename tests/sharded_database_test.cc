// Property suite for the sharded router (src/shard): a ShardedDatabase over
// any shard count must be observationally identical to the single-database
// oracle — same global ids, same query matches in the same order, same
// error surface — plus the sharding-specific contracts: manifest topology
// checks, cross-shard vocabulary broadcast, Unavailable after Close (held
// for both Broker implementations).

#include "shard/sharded.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "broker/database.h"
#include "broker/durable.h"
#include "shard/manifest.h"
#include "testing/temp_dir.h"
#include "testing/universe.h"
#include "util/file_util.h"
#include "wal/wal.h"

namespace ctdb::shard {
namespace {

using ::ctdb::testing::TempDir;

wal::DurabilityOptions FastOptions() {
  wal::DurabilityOptions options;
  options.fsync_policy = wal::FsyncPolicy::kNever;
  return options;
}

broker::DatabaseOptions ShardOptions(size_t shards) {
  broker::DatabaseOptions options;
  options.shards = shards;
  return options;
}

/// The reproducible universe both sides register from: contract texts drawn
/// once via the workload generator, registered in identical order.
struct Universe {
  std::unique_ptr<broker::ContractDatabase> oracle;
  std::vector<std::string> queries;
};

Universe MakeUniverse(size_t contracts, uint64_t seed, size_t queries = 10) {
  testing::RandomDatabaseSpec spec;
  spec.contracts = contracts;
  spec.contract_patterns = 2;
  spec.vocabulary_size = 12;
  auto generated = testing::RandomDatabase(spec, seed);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  auto q = testing::RandomQueries(generated->get(), 2, queries, seed + 1,
                                  spec.vocabulary_size);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  // The oracle is rebuilt from the contract *texts*, exactly as the sharded
  // side registers them: its vocabulary is the union of cited events, so a
  // query citing an uncited generator event is NotFound on both sides (the
  // generator's database knows p1..pN regardless, which no text-registered
  // database — sharded or not — can reproduce).
  auto oracle = std::make_unique<broker::ContractDatabase>();
  for (uint32_t id = 0; id < generated->get()->size(); ++id) {
    const broker::Contract& c = generated->get()->contract(id);
    auto registered = oracle->Register(c.name, c.ltl_text);
    EXPECT_TRUE(registered.ok()) << registered.status().ToString();
  }
  return Universe{std::move(oracle), std::move(*q)};
}

/// Registers the oracle's contracts, in id order, into `sharded`; expects
/// the striped router to reproduce the oracle's dense ids exactly.
void MirrorRegistrations(const broker::ContractDatabase& oracle,
                         ShardedDatabase* sharded) {
  for (uint32_t id = 0; id < oracle.size(); ++id) {
    const broker::Contract& c = oracle.contract(id);
    auto got = sharded->Register(c.name, c.ltl_text);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(*got, id) << "router must reproduce the oracle's dense ids";
  }
}

/// The Broker under test: the unsharded DurableDatabase for 0 shards, the
/// router otherwise. Null when opening failed.
std::unique_ptr<broker::Broker> OpenBroker(const std::string& dir,
                                           size_t shards) {
  if (shards == 0) {
    auto db = broker::DurableDatabase::Open(dir, FastOptions());
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return db.ok() ? std::move(*db) : nullptr;
  }
  auto db = ShardedDatabase::Open(dir, FastOptions(), ShardOptions(shards));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.ok() ? std::move(*db) : nullptr;
}

void ExpectQueryParity(const broker::ContractDatabase& oracle,
                       const ShardedDatabase& sharded,
                       const std::vector<std::string>& queries) {
  broker::QueryOptions with_witnesses;
  with_witnesses.collect_witnesses = true;
  for (const std::string& query : queries) {
    auto want = oracle.Query(query, with_witnesses);
    auto got = sharded.Query(query, with_witnesses);
    ASSERT_EQ(want.ok(), got.ok()) << query;
    if (!want.ok()) {
      EXPECT_EQ(want.status().code(), got.status().code());
      continue;
    }
    EXPECT_EQ(got->matches, want->matches) << query;
    // Witnesses stay aligned with their matches through the k-way merge;
    // each is a concrete run of the matched contract, so non-degenerate.
    ASSERT_EQ(got->witnesses.size(), got->matches.size());
    for (const LassoWord& w : got->witnesses) {
      EXPECT_FALSE(w.cycle.empty());
    }
    // Per-contract statistics are partition-insensitive: every contract is
    // examined exactly once, on exactly one shard.
    EXPECT_EQ(got->stats.database_size, want->stats.database_size);
    EXPECT_EQ(got->stats.candidates, want->stats.candidates);
    EXPECT_EQ(got->stats.matches, want->stats.matches);
  }
}

TEST(ShardedDatabaseTest, FreshDirectoryCreatesTopology) {
  TempDir dir("sharded");
  auto db = ShardedDatabase::Open(dir.path(), FastOptions(), ShardOptions(4));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->shard_count(), 4u);
  EXPECT_EQ((*db)->size(), 0u);
  EXPECT_EQ((*db)->recovery_stats().per_shard.size(), 4u);

  auto manifest = ReadManifest(dir.path());
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->shards, 4u);
  ASSERT_EQ(manifest->dirs.size(), 4u);
  EXPECT_EQ(manifest->dirs[0], "shard-000");
  EXPECT_EQ(manifest->dirs[3], "shard-003");
}

TEST(ShardedDatabaseTest, TopologyMismatchIsRejected) {
  TempDir dir("sharded");
  {
    auto db =
        ShardedDatabase::Open(dir.path(), FastOptions(), ShardOptions(4));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto wrong =
      ShardedDatabase::Open(dir.path(), FastOptions(), ShardOptions(2));
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);

  // shards = 0 adopts whatever the manifest records.
  auto adopted =
      ShardedDatabase::Open(dir.path(), FastOptions(), ShardOptions(0));
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_EQ((*adopted)->shard_count(), 4u);
}

TEST(ShardedDatabaseTest, RefusesToShardOverUnshardedData) {
  TempDir dir("sharded");
  {
    auto db = broker::DurableDatabase::Open(dir.path(), FastOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Register("c", "F p1").ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto sharded =
      ShardedDatabase::Open(dir.path(), FastOptions(), ShardOptions(2));
  ASSERT_FALSE(sharded.ok());
  EXPECT_EQ(sharded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedDatabaseTest, CorruptManifestIsRejected) {
  TempDir dir("sharded");
  {
    auto db =
        ShardedDatabase::Open(dir.path(), FastOptions(), ShardOptions(2));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Close().ok());
  }
  ASSERT_TRUE(util::WriteFileAtomic(dir.file(kManifestFileName),
                                    "CTDBSHARDS1\nshards zero\n")
                  .ok());
  auto reopened =
      ShardedDatabase::Open(dir.path(), FastOptions(), ShardOptions(0));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST(ShardedDatabaseTest, QueryParityAcrossShardCounts) {
  const Universe universe = MakeUniverse(/*contracts=*/14, /*seed=*/0xced1);
  for (size_t shards : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(shards);
    TempDir dir("sharded");
    auto db = ShardedDatabase::Open(dir.path(), FastOptions(),
                                    ShardOptions(shards));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    MirrorRegistrations(*universe.oracle, db->get());
    EXPECT_EQ((*db)->size(), universe.oracle->size());
    ExpectQueryParity(*universe.oracle, **db, universe.queries);
  }
}

TEST(ShardedDatabaseTest, QueryBatchMatchesPerQueryResults) {
  const Universe universe = MakeUniverse(/*contracts=*/12, /*seed=*/0xba7c);
  TempDir dir("sharded");
  auto db = ShardedDatabase::Open(dir.path(), FastOptions(), ShardOptions(3));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  MirrorRegistrations(*universe.oracle, db->get());

  auto batch = (*db)->QueryBatch(universe.queries);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), universe.queries.size());
  for (size_t i = 0; i < universe.queries.size(); ++i) {
    auto want = universe.oracle->Query(universe.queries[i]);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ((*batch)[i].matches, want->matches) << universe.queries[i];
  }
}

TEST(ShardedDatabaseTest, VocabularyIsBroadcastAcrossShards) {
  TempDir dir("sharded");
  auto db = ShardedDatabase::Open(dir.path(), FastOptions(), ShardOptions(3));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Each registration lands on a different shard, each citing a private
  // event; a query citing all three can only parse if every shard learned
  // the other shards' events.
  ASSERT_TRUE((*db)->Register("a", "F alpha").ok());
  ASSERT_TRUE((*db)->Register("b", "F beta").ok());
  ASSERT_TRUE((*db)->Register("c", "F gamma").ok());
  auto result = (*db)->Query("F alpha & F beta & F gamma");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Error parity for genuinely unknown events survives sharding.
  auto unknown = (*db)->Query("F no_such_event");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

TEST(ShardedDatabaseTest, RegisterBatchStripesAndIsAllOrNothing) {
  const Universe universe = MakeUniverse(/*contracts=*/9, /*seed=*/0x5eed);
  TempDir dir("sharded");
  auto db = ShardedDatabase::Open(dir.path(), FastOptions(), ShardOptions(4));
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  std::vector<broker::ContractDatabase::BatchEntry> entries;
  for (uint32_t id = 0; id < universe.oracle->size(); ++id) {
    const broker::Contract& c = universe.oracle->contract(id);
    entries.push_back({c.name, c.ltl_text});
  }
  auto ids = (*db)->RegisterBatch(entries);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids->size(), entries.size());
  for (uint32_t i = 0; i < ids->size(); ++i) EXPECT_EQ((*ids)[i], i);
  ExpectQueryParity(*universe.oracle, **db, universe.queries);

  // A malformed entry anywhere fails the whole batch before any shard
  // commits anything.
  const size_t before = (*db)->size();
  std::vector<broker::ContractDatabase::BatchEntry> bad = {
      {"ok", "F p1"}, {"broken", "F (p1"}, {"also-ok", "F p2"}};
  auto rejected = (*db)->RegisterBatch(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ((*db)->size(), before);
  for (size_t k = 0; k < (*db)->shard_count(); ++k) {
    EXPECT_LE((*db)->shard(k).size(), (before + 3) / 4 + 1);
  }
}

TEST(ShardedDatabaseTest, EverythingIsUnavailableAfterClose) {
  // Both Broker implementations: 0 opens the unsharded DurableDatabase.
  for (const size_t shards : {0, 2}) {
    SCOPED_TRACE(shards);
    TempDir dir("sharded");
    const std::unique_ptr<broker::Broker> db = OpenBroker(dir.path(), shards);
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE(db->Register("c", "F p1").ok());
    ASSERT_TRUE(db->StreamOpen("s").ok());
    ASSERT_TRUE(db->Close().ok());
    ASSERT_TRUE(db->Close().ok());  // idempotent

    const StatusCode unavailable = StatusCode::kUnavailable;
    EXPECT_EQ(db->Register("late", "F p1").status().code(), unavailable);
    EXPECT_EQ(db->RegisterBatch({{"x", "F p1"}}).status().code(),
              unavailable);
    EXPECT_EQ(db->Unregister(0).status().code(), unavailable);
    EXPECT_EQ(db->Replace(0, "G p1").status().code(), unavailable);
    EXPECT_EQ(db->StreamOpen("t").status().code(), unavailable);
    EXPECT_EQ(db->StreamAppend("s", {{"p1"}}).status().code(), unavailable);
    EXPECT_EQ(db->Checkpoint().code(), unavailable);
    // Closing a stream is summary work and stays legal.
    EXPECT_TRUE(db->StreamClose("s").ok());
    if (shards == 0) {
      // Queries stay legal on a closed DurableDatabase (durable.h).
      EXPECT_TRUE(db->Query("F p1").ok());
    } else {
      EXPECT_EQ(db->Query("F p1").status().code(), unavailable);
      EXPECT_EQ(db->QueryBatch({"F p1"}).status().code(), unavailable);
    }
  }
}

// A bad request reads the same in every topology: the unsharded database
// and the router at 2 and 4 shards answer each with the same code and the
// same message.
TEST(ShardedDatabaseTest, RequestErrorsMatchAcrossTopologies) {
  std::vector<std::vector<Status>> answers;
  for (const size_t shards : {0, 2, 4}) {
    SCOPED_TRACE(shards);
    TempDir dir("sharded");
    const std::unique_ptr<broker::Broker> db = OpenBroker(dir.path(), shards);
    ASSERT_NE(db, nullptr);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(
          db->Register("c" + std::to_string(i), "G(p1 -> F p2)").ok());
    }
    ASSERT_TRUE(db->Unregister(3).ok());
    ASSERT_TRUE(db->StreamOpen("open").ok());
    answers.push_back({
        db->Query("F nosuchevent").status(),
        db->QueryBatch({"F p1", "F nosuchevent"}).status(),
        db->Query("F (p1").status(),
        db->StreamAppend("never", {{"p1"}}).status(),
        db->StreamClose("never").status(),
        db->StreamOpen("open").status(),
        db->Unregister(3).status(),
        db->Replace(3, "F p2").status(),
        db->Unregister(42).status(),
        db->Replace(42, "F p2").status(),
    });
  }
  for (size_t i = 0; i < answers[0].size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_FALSE(answers[0][i].ok());
    for (size_t t = 1; t < answers.size(); ++t) {
      EXPECT_EQ(answers[t][i].ToString(), answers[0][i].ToString());
    }
  }
}

// A failure of one shard's own state names that shard: the message starts
// with the shard's directory, whatever path the failing call reports.
TEST(ShardedDatabaseTest, ShardStateFailureNamesTheShard) {
  TempDir dir("sharded");
  auto db = ShardedDatabase::Open(dir.path(), FastOptions(), ShardOptions(2));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Register("c", "F p1").ok());
  ASSERT_GT(std::filesystem::remove_all(dir.file(ShardDirName(1))), 0u);
  const Status status = (*db)->Checkpoint();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message().rfind("shard-001: ", 0), 0u)
      << status.ToString();
}

TEST(ShardedDatabaseTest, RecoveryPreservesParityAndVocabulary) {
  const Universe universe = MakeUniverse(/*contracts=*/13, /*seed=*/0x4ec0);
  TempDir dir("sharded");
  {
    auto db =
        ShardedDatabase::Open(dir.path(), FastOptions(), ShardOptions(4));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    MirrorRegistrations(*universe.oracle, db->get());
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto db = ShardedDatabase::Open(dir.path(), FastOptions(), ShardOptions(0));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->size(), universe.oracle->size());
  EXPECT_EQ((*db)->recovery_stats().records_replayed,
            universe.oracle->size());
  ExpectQueryParity(*universe.oracle, **db, universe.queries);

  // Registration keeps extending the striped id space after recovery.
  auto next = (*db)->Register("post-recovery", "F p1");
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, universe.oracle->size());
}

TEST(ShardedDatabaseTest, CheckpointFansOutToEveryShard) {
  const Universe universe = MakeUniverse(/*contracts=*/8, /*seed=*/0xcafe);
  TempDir dir("sharded");
  {
    auto db =
        ShardedDatabase::Open(dir.path(), FastOptions(), ShardOptions(2));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    MirrorRegistrations(*universe.oracle, db->get());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  // Every shard holds its own checkpoint image...
  for (size_t k = 0; k < 2; ++k) {
    auto entries = util::ListDir(dir.file(ShardDirName(k)));
    ASSERT_TRUE(entries.ok());
    const bool has_checkpoint =
        std::any_of(entries->begin(), entries->end(), [](const std::string& e) {
          return e.find("checkpoint-") == 0;
        });
    EXPECT_TRUE(has_checkpoint) << ShardDirName(k);
  }
  // ...and recovery from the checkpoints preserves the oracle's answers.
  auto db = ShardedDatabase::Open(dir.path(), FastOptions(), ShardOptions(0));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ExpectQueryParity(*universe.oracle, **db, universe.queries);
}

TEST(ShardedManifestTest, EncodeDecodeRoundTrip) {
  Manifest manifest;
  manifest.shards = 3;
  manifest.dirs = {"shard-000", "shard-001", "shard-002"};
  auto decoded = DecodeManifest(EncodeManifest(manifest));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->shards, manifest.shards);
  EXPECT_EQ(decoded->dirs, manifest.dirs);
}

TEST(ShardedManifestTest, StrictDecodeRejectsDamage) {
  const std::string good =
      EncodeManifest({2, {ShardDirName(0), ShardDirName(1)}});
  EXPECT_FALSE(DecodeManifest("").ok());
  EXPECT_FALSE(DecodeManifest("CTDBSHARDSX\nshards 2\n").ok());
  EXPECT_FALSE(DecodeManifest("CTDBSHARDS1\nshards 0\n").ok());
  EXPECT_FALSE(DecodeManifest("CTDBSHARDS1\nshards 2\ndir shard-000\n").ok());
  EXPECT_FALSE(DecodeManifest(good + "trailing\n").ok());
  EXPECT_FALSE(DecodeManifest(good.substr(0, good.size() - 1)).ok());
  EXPECT_FALSE(
      DecodeManifest("CTDBSHARDS1\nshards 1\ndir ../escape\n").ok());
  for (const auto& text : {good}) {
    EXPECT_TRUE(DecodeManifest(text).ok());
  }
}

TEST(ShardedManifestTest, IdStripingIsABijection) {
  for (size_t shards : {1u, 2u, 5u}) {
    for (uint32_t id = 0; id < 64; ++id) {
      const size_t k = ShardedDatabase::ShardOfId(id, shards);
      const uint32_t local = ShardedDatabase::LocalId(id, shards);
      EXPECT_LT(k, shards);
      EXPECT_EQ(ShardedDatabase::GlobalId(k, local, shards), id);
    }
  }
}

}  // namespace
}  // namespace ctdb::shard
