// Streaming compliance monitor semantics (DESIGN.md §15): finite-trace
// verdicts of the incremental stepper, delta reporting against the open-time
// baseline, alphabet pruning transparency, snapshot isolation of the as_of
// pin across the contract lifecycle, one shared monitor per contract
// version, the StreamMonitor registry's error surface, and the sharded
// scatter-gather against the unsharded oracle.

#include "monitor/monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "broker/database.h"
#include "broker/durable.h"
#include "monitor/session.h"
#include "shard/sharded.h"
#include "testing/counter_growth.h"
#include "testing/temp_dir.h"
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

/// Opens a session over the database's current snapshot.
std::unique_ptr<StreamSession> OpenSession(broker::ContractDatabase* db,
                                           StreamOptions options = {}) {
  auto session = StreamSession::Open(db->Snapshot(), options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(*session);
}

StreamVerdict VerdictOf(const StreamCloseInfo& info, uint32_t id) {
  for (const VerdictDelta& v : info.verdicts) {
    if (v.contract_id == id) return v.verdict;
  }
  ADD_FAILURE() << "no verdict for contract " << id;
  return StreamVerdict::kUndetermined;
}

TEST(StreamSessionTest, EventualityBecomesSatisfied) {
  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("pay", "F paid").ok());
  auto session = OpenSession(&db);
  EXPECT_EQ(VerdictOf(session->Summary(), 0), StreamVerdict::kUndetermined);

  StreamAppendResult r = session->Append({{"paid"}});
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_EQ(r.deltas[0], (VerdictDelta{0, StreamVerdict::kSatisfied}));

  // "F paid" accepts every extension; later instants change nothing.
  r = session->Append({{}, {"paid"}, {}});
  EXPECT_TRUE(r.deltas.empty());
  EXPECT_EQ(VerdictOf(session->Summary(), 0), StreamVerdict::kSatisfied);
  EXPECT_EQ(session->Summary().events, 4u);
}

TEST(StreamSessionTest, SafetyViolationIsAbsorbing) {
  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("safe", "G !breach").ok());
  auto session = OpenSession(&db);
  // The empty prefix of a safety property is accepted.
  EXPECT_EQ(VerdictOf(session->Summary(), 0), StreamVerdict::kSatisfied);

  StreamAppendResult r = session->Append({{"breach"}});
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_EQ(r.deltas[0], (VerdictDelta{0, StreamVerdict::kViolated}));

  // Violated is permanent: the frozen stepper skips whole batches (counted
  // as pruned) and the verdict never moves again.
  r = session->Append({{}, {}, {}});
  EXPECT_TRUE(r.deltas.empty());
  EXPECT_EQ(r.stepped, 0u);
  EXPECT_EQ(r.pruned, 3u);
  EXPECT_EQ(VerdictOf(session->Summary(), 0), StreamVerdict::kViolated);
}

TEST(StreamSessionTest, ResponsePatternFlipsWithObligations) {
  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("resp", "G(request -> F grant)").ok());
  auto session = OpenSession(&db);
  // The empty prefix is undetermined — acceptance needs at least one step
  // to reach the obligation-free final state — and one quiet instant
  // (no request) gets there.
  EXPECT_EQ(VerdictOf(session->Summary(), 0), StreamVerdict::kUndetermined);
  session->Append({{}});
  EXPECT_EQ(VerdictOf(session->Summary(), 0), StreamVerdict::kSatisfied);

  // An open obligation suspends acceptance; granting restores it.
  session->Append({{"request"}});
  EXPECT_EQ(VerdictOf(session->Summary(), 0), StreamVerdict::kUndetermined);
  session->Append({{"grant"}});
  EXPECT_EQ(VerdictOf(session->Summary(), 0), StreamVerdict::kSatisfied);
}

TEST(StreamSessionTest, DeltasAreChangesOnlySortedById) {
  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("c0", "F paid").ok());
  ASSERT_TRUE(db.Register("c1", "G !breach").ok());
  ASSERT_TRUE(db.Register("c2", "F paid & G !breach").ok());
  auto session = OpenSession(&db);

  // One batch that satisfies c0, violates c1 and c2: all three move, and
  // the deltas arrive in ascending contract-id order.
  const StreamAppendResult r = session->Append({{"paid"}, {"breach"}});
  ASSERT_EQ(r.deltas.size(), 3u);
  EXPECT_EQ(r.deltas[0], (VerdictDelta{0, StreamVerdict::kSatisfied}));
  EXPECT_EQ(r.deltas[1], (VerdictDelta{1, StreamVerdict::kViolated}));
  EXPECT_EQ(r.deltas[2], (VerdictDelta{2, StreamVerdict::kViolated}));

  // No change → no delta, even though two contracts are still stepping.
  EXPECT_TRUE(session->Append({{"paid"}}).deltas.empty());
}

TEST(StreamSessionTest, UnknownEventNamesAreInert) {
  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("safe", "G !breach").ok());
  auto session = OpenSession(&db);
  const StreamAppendResult r =
      session->Append({{"warehouse_scan"}, {"audit", "retry"}});
  EXPECT_TRUE(r.deltas.empty());
  EXPECT_EQ(r.events, 2u);
  EXPECT_EQ(VerdictOf(session->Summary(), 0), StreamVerdict::kSatisfied);
}

TEST(StreamSessionTest, PruningIsTransparentAndCounted) {
  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("resp", "G(request -> F grant)").ok());
  ASSERT_TRUE(db.Register("pay", "F paid").ok());
  // Interned by no registration path below: a disjoint-alphabet batch.
  const EventBatch mismatched = {{"other"}, {"other"}, {"other"}, {"other"}};
  const EventBatch cited = {{"request"}};

  StreamOptions noprune;
  noprune.prune = false;
  auto pruned = OpenSession(&db);
  auto baseline = OpenSession(&db, noprune);

  const StreamAppendResult a = pruned->Append(mismatched);
  const StreamAppendResult b = baseline->Append(mismatched);
  // Same verdicts either way; the pruned session did strictly less work.
  EXPECT_EQ(pruned->Summary().verdicts, baseline->Summary().verdicts);
  EXPECT_GT(a.pruned, 0u);
  EXPECT_EQ(b.pruned, 0u);
  EXPECT_EQ(a.stepped + a.pruned, b.stepped);

  // A batch citing the contracts' events is never pruned away from them.
  pruned->Append(cited);
  baseline->Append(cited);
  EXPECT_EQ(pruned->Summary().verdicts, baseline->Summary().verdicts);
  EXPECT_EQ(VerdictOf(pruned->Summary(), 0), StreamVerdict::kUndetermined);
}

TEST(StreamSessionTest, AsOfPinsContractVisibility) {
  TempDir dir("monitor");
  auto db = broker::DurableDatabase::Open(dir.path(), FastOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Register("early", "F paid").ok());
  const uint64_t t1 = (*db)->last_sequence();
  ASSERT_TRUE((*db)->Register("late", "G !breach").ok());

  // A historical pin sees one contract, the latest pin two.
  StreamOptions at_t1;
  at_t1.as_of = t1;
  auto old_info = (*db)->StreamOpen("old", at_t1);
  ASSERT_TRUE(old_info.ok()) << old_info.status().ToString();
  EXPECT_EQ(old_info->clock, t1);
  EXPECT_EQ(old_info->tracked, 1u);
  auto new_info = (*db)->StreamOpen("new");
  ASSERT_TRUE(new_info.ok());
  EXPECT_EQ(new_info->tracked, 2u);

  // Mutations after the pin are invisible to both open streams: the
  // unregistered contract keeps stepping inside them.
  ASSERT_TRUE((*db)->Unregister(0).ok());
  auto append = (*db)->StreamAppend("new", {{"paid"}});
  ASSERT_TRUE(append.ok());
  ASSERT_EQ(append->deltas.size(), 1u);
  EXPECT_EQ(append->deltas[0], (VerdictDelta{0, StreamVerdict::kSatisfied}));
  auto closed = (*db)->StreamClose("old");
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->verdicts.size(), 1u);

  // A fresh latest-pin stream no longer tracks the unregistered contract.
  auto fresh = (*db)->StreamOpen("fresh");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->tracked, 1u);
}

TEST(StreamSessionTest, AsOfBelowRetentionFloorIsInvalidArgument) {
  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("c0", "F paid").ok());
  ASSERT_TRUE(db.Unregister(0).ok());
  ASSERT_TRUE(db.Register("c1", "G !breach").ok());
  db.PruneHistory(2);

  StreamOptions below;
  below.as_of = 1;
  auto session = StreamSession::Open(db.Snapshot(), below);
  ASSERT_FALSE(session.ok());
  EXPECT_TRUE(session.status().IsInvalidArgument())
      << session.status().ToString();
}

TEST(StreamSessionTest, AsOfPastLatestClampsLikeQueries) {
  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("c0", "F paid").ok());
  StreamOptions future;
  future.as_of = 1000;
  auto session = StreamSession::Open(db.Snapshot(), future);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->clock(), db.Snapshot()->sequence());
  EXPECT_EQ((*session)->tracked(), 1u);
}

TEST(ContractMonitorTest, SessionsOnOneSnapshotShareMonitors) {
  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("c0", "F paid").ok());
  ASSERT_TRUE(db.Register("c1", "G !breach").ok());
  ASSERT_TRUE(db.Register("c2", "G(request -> F grant)").ok());
  const CounterGrowth growth;
  std::vector<std::unique_ptr<StreamSession>> sessions;
  for (int i = 0; i < 4; ++i) sessions.push_back(OpenSession(&db));
  // Every version's monitor was built by the first open only.
  if (CTDB_OBS) {
    EXPECT_EQ(growth("monitor.builds"), 3u);
  }
  for (size_t c = 0; c < 3; ++c) {
    for (const auto& session : sessions) {
      EXPECT_EQ(&session->monitor(c), &sessions[0]->monitor(c));
    }
  }
  // Shared tables, private positions: one session's events leave the
  // others on the empty prefix.
  sessions[0]->Append({{"paid"}, {"breach"}});
  EXPECT_EQ(VerdictOf(sessions[0]->Summary(), 0), StreamVerdict::kSatisfied);
  EXPECT_EQ(VerdictOf(sessions[0]->Summary(), 1), StreamVerdict::kViolated);
  EXPECT_EQ(VerdictOf(sessions[1]->Summary(), 0),
            StreamVerdict::kUndetermined);
  EXPECT_EQ(VerdictOf(sessions[1]->Summary(), 1), StreamVerdict::kSatisfied);
}

TEST(ContractMonitorTest, ReplaceBuildsANewMonitorAndOldPinsKeepTheirs) {
  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("c0", "F paid").ok());
  const CounterGrowth growth;
  auto before = OpenSession(&db);
  ASSERT_TRUE(db.Replace(0, "G !paid").ok());
  auto after = OpenSession(&db);
  if (CTDB_OBS) {
    EXPECT_EQ(growth("monitor.builds"), 2u);
  }
  EXPECT_NE(&before->monitor(0), &after->monitor(0));

  // The session pinned before the replace still steps the old version.
  before->Append({{"paid"}});
  after->Append({{"paid"}});
  EXPECT_EQ(VerdictOf(before->Summary(), 0), StreamVerdict::kSatisfied);
  EXPECT_EQ(VerdictOf(after->Summary(), 0), StreamVerdict::kViolated);
}

TEST(ContractMonitorTest, AsOfSessionBuildsHistoryMonitors) {
  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("c0", "F paid").ok());
  const uint64_t t1 = db.Snapshot()->sequence();
  ASSERT_TRUE(db.Replace(0, "G !paid").ok());
  const auto snapshot = db.Snapshot();
  const std::vector<const broker::Contract*> history = snapshot->VisibleAt(t1);
  ASSERT_EQ(history.size(), 1u);

  const CounterGrowth growth;
  StreamOptions at_t1;
  at_t1.as_of = t1;
  auto first = StreamSession::Open(snapshot, at_t1);
  auto second = StreamSession::Open(snapshot, at_t1);
  ASSERT_TRUE(first.ok() && second.ok());
  if (CTDB_OBS) {
    EXPECT_EQ(growth("monitor.builds"), 1u);
  }
  EXPECT_EQ(&(*first)->monitor(0), &ContractMonitor::Of(*history[0]));
  EXPECT_EQ(&(*second)->monitor(0), &(*first)->monitor(0));

  // The history version's tables step the history version's formula.
  (*first)->Append({{"paid"}});
  EXPECT_EQ(VerdictOf((*first)->Summary(), 0), StreamVerdict::kSatisfied);
}

TEST(StreamMonitorTest, RegistryErrorSurface) {
  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("c0", "F paid").ok());
  StreamMonitor monitor;

  ASSERT_TRUE(monitor.Open("orders", db.Snapshot()).ok());
  EXPECT_EQ(monitor.open_streams(), 1u);
  auto dup = monitor.Open("orders", db.Snapshot());
  ASSERT_FALSE(dup.ok());
  EXPECT_TRUE(dup.status().IsAlreadyExists()) << dup.status().ToString();

  EXPECT_TRUE(monitor.Append("missing", {{"paid"}}).status().IsNotFound());
  EXPECT_TRUE(monitor.Close("missing").status().IsNotFound());

  ASSERT_TRUE(monitor.Append("orders", {{"paid"}}).ok());
  auto summary = monitor.Summary("orders");
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->events, 1u);
  EXPECT_EQ(summary->satisfied, 1u);

  auto closed = monitor.Close("orders");
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->events, 1u);
  EXPECT_EQ(monitor.open_streams(), 0u);
  // Closing frees the name for reuse.
  EXPECT_TRUE(monitor.Open("orders", db.Snapshot()).ok());
}

TEST(StreamMonitorTest, CloseTalliesMatchVerdicts) {
  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("c0", "F paid").ok());
  ASSERT_TRUE(db.Register("c1", "G !breach").ok());
  ASSERT_TRUE(db.Register("c2", "F shipped").ok());
  StreamMonitor monitor;
  ASSERT_TRUE(monitor.Open("s", db.Snapshot()).ok());
  ASSERT_TRUE(monitor.Append("s", {{"paid"}, {"breach"}}).ok());
  auto closed = monitor.Close("s");
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->verdicts.size(), 3u);
  EXPECT_EQ(closed->satisfied, 1u);     // c0
  EXPECT_EQ(closed->violated, 1u);      // c1
  EXPECT_EQ(closed->undetermined, 1u);  // c2
  EXPECT_EQ(closed->satisfied + closed->violated + closed->undetermined,
            closed->verdicts.size());
}

/// Sharded scatter-gather must be observationally identical to streaming
/// the same contracts through one unsharded database: same global ids,
/// same final verdicts, deltas ascending.
TEST(ShardedStreamTest, MatchesUnshardedOracle) {
  const std::vector<std::pair<std::string, std::string>> contracts = {
      {"c0", "F paid"},
      {"c1", "G !breach"},
      {"c2", "G(request -> F grant)"},
      {"c3", "F shipped & G !cancel"},
      {"c4", "F paid | F refund"},
  };
  const std::vector<EventBatch> batches = {
      {{"request"}, {"paid", "breach"}},
      {{"grant"}, {"cancel"}},
      {{"shipped"}, {}},
  };

  broker::ContractDatabase oracle;
  TempDir dir("monitor");
  broker::DatabaseOptions topology;
  topology.shards = 3;
  auto sharded = shard::ShardedDatabase::Open(dir.path(), FastOptions(),
                                              topology);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  for (const auto& [name, text] : contracts) {
    ASSERT_TRUE(oracle.Register(name, text).ok());
    ASSERT_TRUE((*sharded)->Register(name, text).ok());
  }

  auto oracle_session = OpenSession(&oracle);
  auto info = (*sharded)->StreamOpen("s");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->tracked, contracts.size());

  for (const EventBatch& batch : batches) {
    const StreamAppendResult expected = oracle_session->Append(batch);
    auto got = (*sharded)->StreamAppend("s", batch);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->deltas, expected.deltas);
    EXPECT_EQ(got->events, expected.events);
    EXPECT_TRUE(std::is_sorted(
        got->deltas.begin(), got->deltas.end(),
        [](const VerdictDelta& a, const VerdictDelta& b) {
          return a.contract_id < b.contract_id;
        }));
  }

  const StreamCloseInfo expected = oracle_session->Summary();
  auto closed = (*sharded)->StreamClose("s");
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->verdicts, expected.verdicts);
  EXPECT_EQ(closed->satisfied, expected.satisfied);
  EXPECT_EQ(closed->violated, expected.violated);
  EXPECT_EQ(closed->undetermined, expected.undetermined);
  EXPECT_EQ(closed->events, expected.events);
}

TEST(ShardedStreamTest, OpenIsAllOrNothing) {
  TempDir dir("monitor");
  broker::DatabaseOptions topology;
  topology.shards = 2;
  auto sharded = shard::ShardedDatabase::Open(dir.path(), FastOptions(),
                                              topology);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_TRUE((*sharded)->Register("c0", "F paid").ok());

  ASSERT_TRUE((*sharded)->StreamOpen("s").ok());
  // A duplicate open must fail without leaving a half-open stream behind:
  // the name still answers appends, and a different name still opens.
  EXPECT_TRUE((*sharded)->StreamOpen("s").status().IsAlreadyExists());
  EXPECT_TRUE((*sharded)->StreamAppend("s", {{"paid"}}).ok());
  EXPECT_TRUE((*sharded)->StreamOpen("t").ok());
  EXPECT_TRUE((*sharded)->StreamClose("s").ok());
  EXPECT_TRUE((*sharded)->StreamClose("s").status().IsNotFound());
  EXPECT_TRUE((*sharded)->StreamClose("t").ok());
}

}  // namespace
}  // namespace ctdb::monitor
