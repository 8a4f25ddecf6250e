#include "shard/sharded.h"

#include <algorithm>
#include <functional>
#include <thread>
#include <utility>

#include "base/vocabulary.h"
#include "broker/contract.h"
#include "ltl/formula.h"
#include "ltl/parser.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/file_util.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "wal/segment.h"

namespace ctdb::shard {

namespace {

/// The router's one error rule. Internal, Corruption and Unavailable report
/// shard k's own state or service, so they name the shard ("shard-002:
/// checksum mismatch"); every other code is about the request and keeps the
/// wording an unsharded database gives.
Status ShardError(size_t k, const Status& status) {
  switch (status.code()) {
    case StatusCode::kInternal:
    case StatusCode::kCorruption:
    case StatusCode::kUnavailable:
      return Status(status.code(), ShardDirName(k) + ": " + status.message());
    default:
      return status;
  }
}

/// Runs `op(k)` for every shard k — on `pool` when there is one — and
/// returns the results in shard order. Every shard runs whatever the others
/// return: the body handed to ParallelFor never fails, so it skips nothing.
template <typename Op>
auto Scatter(util::ThreadPool* pool, size_t n, const Op& op) {
  std::vector<decltype(op(size_t{0}))> out;
  out.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    out.emplace_back(Status::Internal("shard not reached"));
  }
  auto one = [&](size_t k) {
    out[k] = op(k);
    return Status::OK();
  };
  if (pool != nullptr) {
    (void)pool->ParallelFor(0, n, one);
  } else {
    for (size_t k = 0; k < n; ++k) (void)one(k);
  }
  return out;
}

Status StatusOf(const Status& status) { return status; }
template <typename T>
Status StatusOf(const Result<T>& result) {
  return result.status();
}

/// The lowest-numbered shard's error, under ShardError's rule; OK when
/// every shard succeeded. Deterministic whatever the interleaving.
template <typename R>
Status FirstError(const std::vector<R>& per_shard) {
  for (size_t k = 0; k < per_shard.size(); ++k) {
    const Status status = StatusOf(per_shard[k]);
    if (!status.ok()) return ShardError(k, status);
  }
  return Status::OK();
}

uint32_t LocalIdOf(uint32_t match) { return match; }
uint32_t LocalIdOf(const monitor::VerdictDelta& d) { return d.contract_id; }

/// The one gather step: a k-way merge of per-shard runs into ascending
/// global-id order. `run(k)` is shard k's run, ascending by local id;
/// global = local * n + k keeps that order within a shard. Calls
/// `take(k, i, global_id)` for every item, in merged order.
template <typename Run, typename Take>
void MergeByGlobalId(size_t n, const Run& run, const Take& take) {
  std::vector<size_t> cursor(n, 0);
  while (true) {
    size_t best = n;
    uint32_t best_id = 0;
    for (size_t k = 0; k < n; ++k) {
      if (cursor[k] == run(k).size()) continue;
      const uint32_t id =
          ShardedDatabase::GlobalId(k, LocalIdOf(run(k)[cursor[k]]), n);
      if (best == n || id < best_id) {
        best = k;
        best_id = id;
      }
    }
    if (best == n) return;
    take(best, cursor[best]++, best_id);
  }
}

/// One query's per-shard results gathered: matches (and their witnesses)
/// merged by global id; sizes and counts summed; translate and prefilter the
/// slowest shard's (they run in parallel); permission the summed CPU time.
template <typename At>
broker::QueryResult MergeQuery(size_t n, const At& at, bool witnesses) {
  broker::QueryResult out;
  MergeByGlobalId(
      n, [&](size_t k) -> const auto& { return at(k).matches; },
      [&](size_t k, size_t i, uint32_t id) {
        out.matches.push_back(id);
        if (witnesses) out.witnesses.push_back(std::move(at(k).witnesses[i]));
      });
  broker::QueryStats& m = out.stats;
  for (size_t k = 0; k < n; ++k) {
    const broker::QueryStats& s = at(k).stats;
    m.database_size += s.database_size;
    m.candidates += s.candidates;
    m.matches += s.matches;
    m.translate_ms = std::max(m.translate_ms, s.translate_ms);
    m.prefilter_ms = std::max(m.prefilter_ms, s.prefilter_ms);
    m.permission_ms += s.permission_ms;
    m.translate_cache_hit = m.translate_cache_hit || s.translate_cache_hit;
  }
  return out;
}

/// Per-shard verdict lists merged into one, re-mapped to global ids.
template <typename Run>
std::vector<monitor::VerdictDelta> MergeVerdicts(size_t n, const Run& run) {
  std::vector<monitor::VerdictDelta> merged;
  MergeByGlobalId(n, run, [&](size_t k, size_t i, uint32_t id) {
    merged.push_back({id, run(k)[i].verdict});
  });
  return merged;
}

/// True when `dir` looks like an unsharded DurableDatabase directory —
/// i.e. it already holds WAL segments at the top level. Opening such a
/// directory as sharded would shadow the existing data, so Open refuses.
bool LooksLikeUnshardedData(const std::string& dir) {
  auto entries = util::ListDir(dir);
  if (!entries.ok()) return false;
  for (const std::string& name : *entries) {
    uint64_t index = 0;
    if (wal::ParseSegmentFileName(name, &index)) return true;
  }
  return false;
}

}  // namespace

Result<std::unique_ptr<ShardedDatabase>> ShardedDatabase::Open(
    std::string dir, const wal::DurabilityOptions& durability,
    const broker::DatabaseOptions& options) {
  Timer open_timer;
  CTDB_RETURN_NOT_OK(util::CreateDirIfMissing(dir));

  // Establish the topology: adopt the manifest when one exists (and verify
  // the caller agrees), otherwise stamp a fresh one.
  Manifest manifest;
  auto existing = ReadManifest(dir);
  if (existing.ok()) {
    manifest = std::move(*existing);
    if (options.shards != 0 && options.shards != manifest.shards) {
      return Status::InvalidArgument(StringFormat(
          "sharded database at %s has %u shards, but %zu were requested; "
          "resharding is not supported — open with the recorded topology "
          "(or shards=0 to adopt it)",
          dir.c_str(), manifest.shards, options.shards));
    }
  } else if (existing.status().code() == StatusCode::kNotFound) {
    if (LooksLikeUnshardedData(dir)) {
      return Status::InvalidArgument(
          dir + ": holds an unsharded database (WAL segments present but no " +
          kManifestFileName + "); refusing to shard over it");
    }
    if (options.shards > 1024) {
      return Status::InvalidArgument("shards must be <= 1024");
    }
    manifest.shards =
        static_cast<uint32_t>(options.shards == 0 ? 1 : options.shards);
    for (size_t k = 0; k < manifest.shards; ++k) {
      manifest.dirs.push_back(ShardDirName(k));
    }
    CTDB_RETURN_NOT_OK(WriteManifest(dir, manifest));
  } else {
    return existing.status();
  }

  const size_t n = manifest.shards;
  broker::DatabaseOptions shard_options = options;
  shard_options.shards = 1;  // each shard is a plain DurableDatabase

  // Router pool: one participant per shard up to the hardware, remembering
  // that the calling thread claims iterations too.
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t workers = std::max<size_t>(1, std::min(n, hw) - 1);
  auto pool = n > 1 ? std::make_unique<util::ThreadPool>(workers) : nullptr;

  // Recover every shard in parallel; wall time is the slowest shard.
  auto opened = Scatter(pool.get(), n, [&](size_t k) {
    return broker::DurableDatabase::Open(dir + "/" + manifest.dirs[k],
                                         durability, shard_options);
  });
  CTDB_RETURN_NOT_OK(FirstError(opened));
  std::vector<std::unique_ptr<broker::DurableDatabase>> shards;
  for (auto& shard : opened) shards.push_back(std::move(*shard));

  ShardedRecoveryStats stats;
  stats.shards = n;
  for (size_t k = 0; k < n; ++k) {
    const broker::RecoveryStats& rs = shards[k]->recovery_stats();
    stats.replay_ms_sum += rs.replay_ms + rs.checkpoint_load_ms;
    stats.records_replayed += rs.records_replayed;
    stats.bytes_scanned += rs.bytes_scanned;
    stats.tail_truncated = stats.tail_truncated || rs.tail_truncated;
    stats.per_shard.push_back(rs);
  }

  // Re-broadcast the union vocabulary: InternEvent is not WAL-logged, so a
  // recovered shard only knows the events its own contracts cite (a lone
  // shard has nothing to learn).
  std::vector<std::string> union_names;
  for (size_t k = 0; n > 1 && k < n; ++k) {
    const auto snapshot = shards[k]->Snapshot();
    const std::vector<std::string>& names = snapshot->vocabulary().names();
    union_names.insert(union_names.end(), names.begin(), names.end());
  }
  CTDB_RETURN_NOT_OK(FirstError(Scatter(pool.get(), n, [&](size_t k) {
    for (const std::string& name : union_names) {
      CTDB_RETURN_NOT_OK(shards[k]->InternEvent(name).status());
    }
    return Status::OK();
  })));
  stats.wall_ms = open_timer.ElapsedMillis();

  return std::unique_ptr<ShardedDatabase>(new ShardedDatabase(
      std::move(dir), std::move(shards), std::move(pool), std::move(stats)));
}

ShardedDatabase::ShardedDatabase(
    std::string dir,
    std::vector<std::unique_ptr<broker::DurableDatabase>> shards,
    std::unique_ptr<util::ThreadPool> pool, ShardedRecoveryStats recovery_stats)
    : dir_(std::move(dir)),
      shards_(std::move(shards)),
      pool_(std::move(pool)),
      recovery_stats_(std::move(recovery_stats)) {
  slots_.resize(shards_.size());
  // Shard clocks are sparse samples of one global clock; the max is the
  // latest tick any shard acknowledged.
  for (size_t k = 0; k < shards_.size(); ++k) ResyncLocked(k);
#if CTDB_OBS
  // Counters are cached at construction, so a runtime-disabled registry
  // stays empty (the documented CTDB_OBS=0 contract); enabling obs after
  // construction leaves the per-shard counters unrecorded by design.
  if (obs::Enabled()) {
    register_counters_.resize(shards_.size());
    for (size_t k = 0; k < shards_.size(); ++k) {
      register_counters_[k] = obs::MetricsRegistry::Default()->GetCounter(
          StringFormat("shard.%03zu.registrations", k));
    }
    obs::MetricsRegistry::Default()
        ->GetGauge("shard.count")
        ->Add(static_cast<int64_t>(shards_.size()));
  }
#endif
}

ShardedDatabase::~ShardedDatabase() {
  (void)Close();
#if CTDB_OBS
  if (!register_counters_.empty()) {
    obs::MetricsRegistry::Default()
        ->GetGauge("shard.count")
        ->Sub(static_cast<int64_t>(shards_.size()));
  }
#endif
}

size_t ShardedDatabase::RouteShard(const std::vector<uint64_t>& slots) {
  // Shard k's next global id is slots[k] * N + k, so the lowest one belongs
  // to the first shard with the fewest slots.
  return static_cast<size_t>(std::min_element(slots.begin(), slots.end()) -
                             slots.begin());
}

void ShardedDatabase::ResyncLocked(size_t k) {
  slots_[k] = shards_[k]->slot_count();
  clock_ = std::max(clock_, shards_[k]->last_sequence());
}

Status ShardedDatabase::BroadcastEventsLocked(size_t from, uint32_t local_id) {
  if (shards_.size() == 1) return Status::OK();
  const auto snapshot = shards_[from]->Snapshot();
  const broker::Contract& contract = snapshot->contract(local_id);
  const Vocabulary& vocab = snapshot->vocabulary();
  for (size_t event : contract.events.Indices()) {
    const std::string& name = vocab.Name(static_cast<EventId>(event));
    for (size_t k = 0; k < shards_.size(); ++k) {
      if (k == from) continue;
      CTDB_RETURN_NOT_OK(ShardError(k, shards_[k]->InternEvent(name).status()));
    }
  }
  return Status::OK();
}

Result<uint32_t> ShardedDatabase::Register(std::string name,
                                           std::string_view ltl_text,
                                           broker::RegistrationStats* stats) {
  CTDB_RETURN_NOT_OK(CheckOpen());
  std::lock_guard<std::mutex> lock(route_mutex_);
  const size_t k = RouteShard(slots_);
  const uint64_t expected = slots_[k];
  auto local = shards_[k]->RegisterWithClock(std::move(name), ltl_text, stats,
                                             clock_ + 1);
  // Resync even on failure: a WAL-append error still applied the mutation
  // (and its clock) in the shard's memory, and the router must not hand the
  // same id or tick out twice.
  ResyncLocked(k);
  if (!local.ok()) return ShardError(k, local.status());
  // The shard assigns local ids densely from its own slot count, which the
  // route table tracked, so the striped global id is exactly the next one.
  if (*local != expected) {
    return ShardError(k, Status::Internal("local id out of step"));
  }
#if CTDB_OBS
  if (obs::Enabled() && !register_counters_.empty()) {
    register_counters_[k]->Add();
  }
#endif
  CTDB_RETURN_NOT_OK(BroadcastEventsLocked(k, *local));
  return GlobalId(k, *local, shards_.size());
}

Result<std::vector<uint32_t>> ShardedDatabase::RegisterBatch(
    const std::vector<broker::ContractDatabase::BatchEntry>& entries) {
  CTDB_RETURN_NOT_OK(CheckOpen());
  if (entries.empty()) return std::vector<uint32_t>{};

  // Pre-validate every entry with a scratch parser so a malformed entry
  // fails the whole batch before anything touches any shard — the same
  // all-or-nothing surface as the unsharded RegisterBatch.
  {
    ltl::FormulaFactory scratch_factory;
    Vocabulary scratch_vocab;
    for (const auto& entry : entries) {
      CTDB_RETURN_NOT_OK(
          ltl::Parse(entry.ltl_text, &scratch_factory, &scratch_vocab)
              .status());
    }
  }

  std::lock_guard<std::mutex> lock(route_mutex_);
  const size_t n = shards_.size();

  // Assign global ids and clocks up front, routing each entry as Register
  // would, and group the entries into per-shard sub-batches. Entry i gets
  // global clock clock_ + 1 + i, so the batch occupies the same clock range
  // as the equivalent sequence of single registrations.
  std::vector<uint32_t> global_ids(entries.size());
  std::vector<std::vector<broker::ContractDatabase::BatchEntry>> sub(n);
  std::vector<std::vector<uint64_t>> sub_clocks(n);
  std::vector<uint64_t> next = slots_;
  for (size_t i = 0; i < entries.size(); ++i) {
    const size_t k = RouteShard(next);
    global_ids[i] = GlobalId(k, static_cast<uint32_t>(next[k]++), n);
    sub[k].push_back(entries[i]);
    sub_clocks[k].push_back(clock_ + 1 + i);
  }

  // Commit the sub-batches, each atomic within its shard.
  const auto committed = Scatter(pool_.get(), n, [&](size_t k) -> Status {
    if (sub[k].empty()) return Status::OK();
    CTDB_ASSIGN_OR_RETURN(
        const std::vector<uint32_t> ids,
        shards_[k]->RegisterBatchWithClocks(sub[k], &sub_clocks[k]));
    for (size_t slot = 0; slot < ids.size(); ++slot) {
      if (ids[slot] != slots_[k] + slot) {
        return Status::Internal("local id out of step");
      }
    }
    return Status::OK();
  });
  // Resync from the shards: on a partial failure some sub-batches committed
  // (and consumed their planned clocks), and the router view must cover
  // them.
  for (size_t k = 0; k < n; ++k) ResyncLocked(k);
  CTDB_RETURN_NOT_OK(FirstError(committed));

  for (size_t k = 0; k < n; ++k) {
#if CTDB_OBS
    if (obs::Enabled() && !register_counters_.empty() && !sub[k].empty()) {
      register_counters_[k]->Add(sub[k].size());
    }
#endif
    for (uint64_t local = slots_[k] - sub[k].size(); local < slots_[k];
         ++local) {
      CTDB_RETURN_NOT_OK(
          BroadcastEventsLocked(k, static_cast<uint32_t>(local)));
    }
  }
  return global_ids;
}

Result<uint64_t> ShardedDatabase::MutateOwnerLocked(
    uint32_t id, const std::function<Result<uint64_t>(
                     broker::DurableDatabase&, uint32_t, uint64_t)>& mutate) {
  const size_t n = shards_.size();
  const size_t k = ShardOfId(id, n);
  // NotFound names the global id: the shard only knows the local id, and
  // an out-of-range local would read as a different contract.
  const Status dead =
      Status::NotFound("contract " + std::to_string(id) + " is not live");
  if (LocalId(id, n) >= slots_[k]) return dead;
  auto at = mutate(*shards_[k], LocalId(id, n), clock_ + 1);
  // Resync even on failure: a WAL-append error still ticked the shard.
  ResyncLocked(k);
  if (!at.ok()) {
    return at.status().code() == StatusCode::kNotFound
               ? dead
               : ShardError(k, at.status());
  }
  return at;
}

Result<uint64_t> ShardedDatabase::Unregister(uint32_t id) {
  CTDB_RETURN_NOT_OK(CheckOpen());
  std::lock_guard<std::mutex> lock(route_mutex_);
  CTDB_ASSIGN_OR_RETURN(
      const uint64_t at,
      MutateOwnerLocked(id, [](broker::DurableDatabase& shard, uint32_t local,
                               uint64_t clock) {
        return shard.UnregisterWithClock(local, clock);
      }));
  CTDB_OBS_COUNT("shard.unregisters", 1);
  return at;
}

Result<uint64_t> ShardedDatabase::Replace(uint32_t id,
                                          std::string_view ltl_text,
                                          broker::RegistrationStats* stats) {
  CTDB_RETURN_NOT_OK(CheckOpen());
  std::lock_guard<std::mutex> lock(route_mutex_);
  CTDB_ASSIGN_OR_RETURN(
      const uint64_t at,
      MutateOwnerLocked(id, [&](broker::DurableDatabase& shard, uint32_t local,
                                uint64_t clock) {
        return shard.ReplaceWithClock(local, ltl_text, stats, clock);
      }));
  // The replacement text may cite brand-new events; keep the vocabularies
  // in sync exactly as Register does.
  const size_t n = shards_.size();
  CTDB_RETURN_NOT_OK(BroadcastEventsLocked(ShardOfId(id, n), LocalId(id, n)));
  CTDB_OBS_COUNT("shard.replaces", 1);
  return at;
}

Result<broker::QueryResult> ShardedDatabase::Query(
    std::string_view ltl_text, const broker::QueryOptions& options) const {
  CTDB_RETURN_NOT_OK(CheckOpen());
  Timer wall;
  auto per_shard = Scatter(pool_.get(), shards_.size(), [&](size_t k) {
    return shards_[k]->Query(ltl_text, options);
  });
  CTDB_RETURN_NOT_OK(FirstError(per_shard));
  broker::QueryResult merged = MergeQuery(
      shards_.size(),
      [&](size_t k) -> broker::QueryResult& { return *per_shard[k]; },
      options.collect_witnesses);
  merged.stats.total_ms = wall.ElapsedMillis();
  CTDB_OBS_COUNT("shard.queries", 1);
  return merged;
}

Result<std::vector<broker::QueryResult>> ShardedDatabase::QueryBatch(
    const std::vector<std::string>& queries,
    const broker::QueryOptions& options) const {
  CTDB_RETURN_NOT_OK(CheckOpen());
  Timer wall;
  // Every shard evaluates the whole batch against one of its snapshots.
  auto per_shard = Scatter(pool_.get(), shards_.size(), [&](size_t k) {
    return shards_[k]->QueryBatch(queries, options);
  });
  CTDB_RETURN_NOT_OK(FirstError(per_shard));
  std::vector<broker::QueryResult> merged;
  for (size_t q = 0; q < queries.size(); ++q) {
    merged.push_back(MergeQuery(
        shards_.size(),
        [&](size_t k) -> broker::QueryResult& { return (*per_shard[k])[q]; },
        options.collect_witnesses));
  }
  // total_ms is the scatter-gather wall clock of the whole batch.
  const double wall_ms = wall.ElapsedMillis();
  for (broker::QueryResult& result : merged) result.stats.total_ms = wall_ms;
  CTDB_OBS_COUNT("shard.queries", queries.size());
  return merged;
}

Result<monitor::StreamOpenInfo> ShardedDatabase::StreamOpen(
    std::string name, const monitor::StreamOptions& options) {
  CTDB_RETURN_NOT_OK(CheckOpen());
  // One global pin for every shard. Per-shard clocks are sparse but
  // mutually comparable (router-assigned), so a shard whose clock is behind
  // the pin clamps to its latest state — correct, it had no mutations in
  // between (same argument as QueryAsOf, DESIGN.md §14).
  uint64_t pin = options.as_of;
  if (pin == 0) {
    std::lock_guard<std::mutex> lock(route_mutex_);
    pin = clock_;
  }
  monitor::StreamOptions shard_options = options;
  shard_options.as_of = pin;
  monitor::StreamOpenInfo info;
  info.clock = pin;
  // Not scattered: opening in shard order makes shard 0 the arbiter, so of
  // two racing opens of one name exactly one gets past it.
  for (size_t k = 0; k < shards_.size(); ++k) {
    auto opened = shards_[k]->StreamOpen(name, shard_options);
    if (!opened.ok()) {
      // All-or-nothing: a stream is open on every shard or on none.
      for (size_t j = 0; j < k; ++j) (void)shards_[j]->StreamClose(name);
      return ShardError(k, opened.status());
    }
    info.tracked += opened->tracked;
  }
  return info;
}

Result<monitor::StreamAppendResult> ShardedDatabase::StreamAppend(
    std::string_view name, const monitor::EventBatch& events) {
  CTDB_RETURN_NOT_OK(CheckOpen());
  const size_t n = shards_.size();
  // Every shard steps its own contracts through the whole batch.
  auto per_shard = Scatter(pool_.get(), n, [&](size_t k) {
    return shards_[k]->StreamAppend(name, events);
  });
  CTDB_RETURN_NOT_OK(FirstError(per_shard));
  // Every shard saw the same events; counters sum.
  monitor::StreamAppendResult merged;
  merged.events = per_shard[0]->events;
  for (const auto& r : per_shard) {
    merged.stepped += r->stepped;
    merged.pruned += r->pruned;
  }
  merged.deltas = MergeVerdicts(
      n, [&](size_t k) -> const auto& { return per_shard[k]->deltas; });
  return merged;
}

Result<monitor::StreamCloseInfo> ShardedDatabase::StreamClose(
    std::string_view name) {
  // No CheckOpen: closing a stream is read-only summary work and stays
  // legal while the database shuts down.
  const size_t n = shards_.size();
  auto per_shard = Scatter(pool_.get(), n, [&](size_t k) {
    return shards_[k]->StreamClose(name);
  });
  CTDB_RETURN_NOT_OK(FirstError(per_shard));
  monitor::StreamCloseInfo info;
  info.events = per_shard[0]->events;
  for (const auto& r : per_shard) {
    info.satisfied += r->satisfied;
    info.violated += r->violated;
    info.undetermined += r->undetermined;
  }
  info.verdicts = MergeVerdicts(
      n, [&](size_t k) -> const auto& { return per_shard[k]->verdicts; });
  return info;
}

Status ShardedDatabase::Checkpoint() {
  CTDB_RETURN_NOT_OK(CheckOpen());
  CTDB_RETURN_NOT_OK(FirstError(Scatter(
      pool_.get(), shards_.size(),
      [&](size_t k) { return shards_[k]->Checkpoint(); })));
  CTDB_OBS_COUNT("shard.checkpoints", 1);
  return Status::OK();
}

Status ShardedDatabase::Close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return Status::OK();
  return FirstError(Scatter(pool_.get(), shards_.size(),
                            [&](size_t k) { return shards_[k]->Close(); }));
}

size_t ShardedDatabase::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

uint64_t ShardedDatabase::last_sequence() const {
  std::lock_guard<std::mutex> lock(route_mutex_);
  return clock_;
}

obs::MetricsSnapshot ShardedDatabase::Metrics() const {
  return obs::MetricsRegistry::Default()->Snapshot();
}

}  // namespace ctdb::shard
