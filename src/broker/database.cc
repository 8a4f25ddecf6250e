#include "broker/database.h"

#include <algorithm>
#include <utility>

#include "core/compatibility.h"
#include "ltl/parser.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace ctdb::broker {

namespace {

/// Both registration entry points want timings flushed into the metrics
/// registry even when the caller passed no stats sink: route stats to
/// `fallback` in that case (when the registry is enabled). The fallback
/// struct is flushed by RegisterAutomatonLocked like any caller-provided
/// one.
RegistrationStats* StatsOrObsFallback(RegistrationStats* stats,
                                      RegistrationStats* fallback) {
#if CTDB_OBS
  if (stats == nullptr && obs::Enabled()) return fallback;
#else
  (void)fallback;
#endif
  return stats;
}

}  // namespace

ContractDatabase::ContractDatabase(const DatabaseOptions& options)
    : options_(options),
      prefilter_(options.prefilter),
      translation_cache_(std::make_shared<translate::TranslationCache>(
          options.translation_cache_capacity)) {
  Publish();  // the empty snapshot, so Snapshot() is never null
}

util::ThreadPool* ContractDatabase::EnsurePool(size_t requested) const {
  const size_t threads = options_.ResolveThreads(requested);
  if (threads <= 1) return nullptr;
  // The calling thread participates in ParallelFor, so `threads`-way
  // concurrency needs threads - 1 workers.
  const size_t workers = threads - 1;
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<util::ThreadPool>(workers);
  } else {
    pool_->Grow(workers);
  }
  return pool_.get();
}

void ContractDatabase::Publish() {
  if (published_vocab_ == nullptr ||
      published_vocab_->size() != vocab_.size()) {
    published_vocab_ = std::make_shared<const Vocabulary>(vocab_);
  }
  auto snapshot = std::make_shared<DatabaseSnapshot>();
  snapshot->options_ = options_;
  snapshot->vocab_ = published_vocab_;
  snapshot->contracts_ = contracts_;
  snapshot->live_ = live_;
  snapshot->live_count_ = live_.Count();
  snapshot->ops_ = ops_;
  snapshot->clock_ = clock_;
  snapshot->history_ = history_;
  snapshot->prefilter_ = prefilter_;
  snapshot->translation_cache_ = translation_cache_;
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_ = std::move(snapshot);
}

Result<uint64_t> ContractDatabase::ResolveClockLocked(uint64_t clock) const {
  if (clock == 0) return clock_ + 1;
  if (clock <= clock_) {
    return Status::InvalidArgument(
        "clock " + std::to_string(clock) + " does not advance the system "
        "clock " + std::to_string(clock_));
  }
  return clock;
}

Result<uint32_t> ContractDatabase::Register(std::string name,
                                            std::string_view ltl_text,
                                            RegistrationStats* stats,
                                            uint64_t clock) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  CTDB_ASSIGN_OR_RETURN(const ltl::Formula* spec,
                        ltl::Parse(ltl_text, &factory_, &vocab_));
  return RegisterFormulaLocked(std::move(name), spec, std::string(ltl_text),
                               stats, clock);
}

Result<uint32_t> ContractDatabase::RegisterFormula(std::string name,
                                                   const ltl::Formula* spec,
                                                   std::string ltl_text,
                                                   RegistrationStats* stats,
                                                   uint64_t clock) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return RegisterFormulaLocked(std::move(name), spec, std::move(ltl_text),
                               stats, clock);
}

Result<uint32_t> ContractDatabase::RegisterFormulaLocked(
    std::string name, const ltl::Formula* spec, std::string ltl_text,
    RegistrationStats* stats, uint64_t clock) {
  CTDB_OBS_SPAN(span, "register");
  RegistrationStats obs_stats;
  stats = StatsOrObsFallback(stats, &obs_stats);
  Bitset events;
  spec->CollectEvents(&events);
  if (ltl_text.empty()) ltl_text = spec->ToString(vocab_);

  Timer timer;
  CTDB_ASSIGN_OR_RETURN(
      automata::Buchi ba,
      translate::LtlToBuchi(spec, &factory_, options_.translate));
  if (stats != nullptr) stats->translate_ms = timer.ElapsedMillis();
  return RegisterAutomatonLocked(std::move(name), std::move(ltl_text),
                                 std::move(ba), std::move(events), stats,
                                 clock);
}

Result<uint32_t> ContractDatabase::RegisterAutomaton(std::string name,
                                                     std::string ltl_text,
                                                     automata::Buchi ba,
                                                     Bitset events,
                                                     RegistrationStats* stats,
                                                     uint64_t clock) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return RegisterAutomatonLocked(std::move(name), std::move(ltl_text),
                                 std::move(ba), std::move(events), stats,
                                 clock);
}

Result<uint32_t> ContractDatabase::RegisterAutomatonLocked(
    std::string name, std::string ltl_text, automata::Buchi ba, Bitset events,
    RegistrationStats* stats, uint64_t clock) {
  CTDB_OBS_SPAN(span, "register.automaton");
  RegistrationStats obs_stats;
  stats = StatsOrObsFallback(stats, &obs_stats);
  // Validation failures return before any master state is touched, so the
  // published snapshot is untouched too.
  CTDB_ASSIGN_OR_RETURN(const uint64_t at, ResolveClockLocked(clock));
  CTDB_ASSIGN_OR_RETURN(
      std::unique_ptr<Contract> contract,
      BuildContract(static_cast<uint32_t>(contracts_.size()), std::move(name),
                    std::move(ltl_text), std::move(ba), std::move(events), at,
                    EnsurePool(options_.threads), stats));

  if (options_.build_prefilter) {
    Timer timer;
    CTDB_OBS_SPAN(prefilter_span, "register.prefilter_insert");
    prefilter_.Insert(contract->id, contract->projections.original(),
                      contract->events);
    if (stats != nullptr) stats->prefilter_insert_ms = timer.ElapsedMillis();
  }

  if (stats != nullptr) RecordRegistrationStats(*stats);
  const uint32_t id = contract->id;
  contracts_.push_back(std::move(contract));
  live_.Resize(contracts_.size());
  live_.Set(id);
  ops_ += 1;
  clock_ = at;
  Publish();
  return id;
}

Result<std::unique_ptr<Contract>> ContractDatabase::BuildContract(
    uint32_t id, std::string name, std::string ltl_text, automata::Buchi ba,
    Bitset events, uint64_t valid_from, util::ThreadPool* pool,
    RegistrationStats* stats) const {
  CTDB_RETURN_NOT_OK(ba.Validate());
  auto contract = std::make_unique<Contract>();
  contract->id = id;
  contract->name = std::move(name);
  contract->ltl_text = std::move(ltl_text);
  contract->events = std::move(events);
  contract->valid_from = valid_from;
  if (stats != nullptr) {
    stats->ba_states = ba.StateCount();
    stats->ba_transitions = ba.TransitionCount();
  }
  contract->seed_states = core::ComputeSeedStates(ba);
  if (!options_.build_projections) {
    contract->projections =
        projection::ContractProjections::WrapOnly(std::move(ba));
    return contract;
  }
  Timer timer;
  CTDB_OBS_SPAN(proj_span, "register.projections");
  contract->projections = projection::ContractProjections::Precompute(
      std::move(ba), options_.projections, pool);
  if (stats != nullptr) {
    stats->projection_precompute_ms = timer.ElapsedMillis();
    const projection::ProjectionStats ps = contract->projections.stats();
    stats->projection_subsets = ps.subsets_computed;
    stats->projection_distinct = ps.distinct_partitions;
  }
  return contract;
}

Result<uint64_t> ContractDatabase::Unregister(uint32_t id, uint64_t clock) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  CTDB_OBS_SPAN(span, "unregister");
  if (id >= contracts_.size() || contracts_[id] == nullptr) {
    return Status::NotFound("contract " + std::to_string(id) +
                            " is not live");
  }
  CTDB_ASSIGN_OR_RETURN(const uint64_t at, ResolveClockLocked(clock));
  std::shared_ptr<const Contract> victim = contracts_[id];
  if (options_.build_prefilter) {
    prefilter_.Remove(id, victim->projections.original(), victim->events);
  }
  history_ = history_->Append(
      ContractVersion{victim, victim->valid_from, at});
  contracts_[id] = nullptr;
  live_.Clear(id);
  ops_ += 1;
  clock_ = at;
  Publish();
  CTDB_OBS_COUNT("broker.unregisters", 1);
  return at;
}

Result<uint64_t> ContractDatabase::Replace(uint32_t id,
                                           std::string_view ltl_text,
                                           RegistrationStats* stats,
                                           uint64_t clock) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  CTDB_OBS_SPAN(span, "replace");
  RegistrationStats obs_stats;
  stats = StatsOrObsFallback(stats, &obs_stats);
  if (id >= contracts_.size() || contracts_[id] == nullptr) {
    return Status::NotFound("contract " + std::to_string(id) +
                            " is not live");
  }
  CTDB_ASSIGN_OR_RETURN(const uint64_t at, ResolveClockLocked(clock));

  // Build the replacement fully before touching master state, so a parse or
  // translation failure leaves the old version live and unobserved.
  CTDB_ASSIGN_OR_RETURN(const ltl::Formula* spec,
                        ltl::Parse(ltl_text, &factory_, &vocab_));
  Bitset events;
  spec->CollectEvents(&events);
  Timer timer;
  CTDB_ASSIGN_OR_RETURN(
      automata::Buchi ba,
      translate::LtlToBuchi(spec, &factory_, options_.translate));
  if (stats != nullptr) stats->translate_ms = timer.ElapsedMillis();
  std::shared_ptr<const Contract> old = contracts_[id];
  CTDB_ASSIGN_OR_RETURN(
      std::unique_ptr<Contract> fresh,
      BuildContract(id, old->name, std::string(ltl_text), std::move(ba),
                    std::move(events), at, EnsurePool(options_.threads),
                    stats));
  if (options_.build_prefilter) {
    timer.Reset();
    prefilter_.Remove(id, old->projections.original(), old->events);
    prefilter_.Insert(id, fresh->projections.original(), fresh->events);
    if (stats != nullptr) stats->prefilter_insert_ms = timer.ElapsedMillis();
  }
  if (stats != nullptr) RecordRegistrationStats(*stats);

  history_ = history_->Append(ContractVersion{old, old->valid_from, at});
  contracts_[id] = std::move(fresh);
  ops_ += 1;
  clock_ = at;
  Publish();
  CTDB_OBS_COUNT("broker.replacements", 1);
  return at;
}

Result<uint32_t> ContractDatabase::RestoreContract(
    uint32_t id, std::string name, std::string ltl_text, automata::Buchi ba,
    Bitset events, uint64_t valid_from) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (id < contracts_.size()) {
    return Status::InvalidArgument("restored contract ids must ascend");
  }
  CTDB_ASSIGN_OR_RETURN(
      std::unique_ptr<Contract> contract,
      BuildContract(id, std::move(name), std::move(ltl_text), std::move(ba),
                    std::move(events), valid_from,
                    EnsurePool(options_.threads), nullptr));
  if (options_.build_prefilter) {
    prefilter_.Insert(id, contract->projections.original(), contract->events);
  }
  contracts_.resize(id);  // intervening slots stay holes
  contracts_.push_back(std::move(contract));
  live_.Resize(contracts_.size());
  live_.Set(id);
  Publish();
  return id;
}

Status ContractDatabase::RestoreHistoryVersion(
    uint32_t id, std::string name, std::string ltl_text, automata::Buchi ba,
    Bitset events, uint64_t valid_from, uint64_t valid_to) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (valid_to <= valid_from) {
    return Status::InvalidArgument("history version has an empty period");
  }
  CTDB_ASSIGN_OR_RETURN(
      std::shared_ptr<const Contract> contract,
      BuildContract(id, std::move(name), std::move(ltl_text), std::move(ba),
                    std::move(events), valid_from,
                    EnsurePool(options_.threads), nullptr));
  history_ = history_->Append(
      ContractVersion{std::move(contract), valid_from, valid_to});
  Publish();
  return Status::OK();
}

Status ContractDatabase::RestoreLifecycle(uint64_t ops, uint64_t clock,
                                          uint64_t history_floor,
                                          uint64_t slot_count) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (slot_count < contracts_.size()) {
    return Status::InvalidArgument("slot count below restored contracts");
  }
  contracts_.resize(slot_count);  // trailing holes
  live_.Resize(contracts_.size());
  if (history_floor > 0) history_ = history_->Prune(history_floor);
  ops_ = ops;
  clock_ = clock;
  Publish();
  return Status::OK();
}

void ContractDatabase::PruneHistory(uint64_t horizon) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (horizon == 0) return;
  history_ = history_->Prune(horizon);
  Publish();
}

Result<std::vector<uint32_t>> ContractDatabase::RegisterBatch(
    const std::vector<BatchEntry>& entries,
    const std::vector<uint64_t>* clocks) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (clocks != nullptr) {
    if (clocks->size() != entries.size()) {
      return Status::InvalidArgument("clock count does not match batch size");
    }
    uint64_t last = clock_;
    for (uint64_t c : *clocks) {
      if (c <= last) {
        return Status::InvalidArgument(
            "batch clocks must be strictly increasing past the system clock");
      }
      last = c;
    }
  }

  // Phase 1 (serial): parse against the shared vocabulary so every event is
  // interned with its final id, and collect each contract's cited events.
  std::vector<Bitset> events(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    CTDB_ASSIGN_OR_RETURN(const ltl::Formula* spec,
                          ltl::Parse(entries[i].ltl_text, &factory_, &vocab_));
    spec->CollectEvents(&events[i]);
  }

  // Phase 2 (parallel): each worker re-parses into a thread-local factory
  // (read-only against the master vocabulary — every event id is already
  // fixed, and the vocabulary is stable under writer_mutex_), translates,
  // and builds the contract. No shared mutable state.
  std::vector<Result<std::unique_ptr<Contract>>> built;
  built.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    built.emplace_back(Status::Internal("contract not built"));
  }

  const size_t threads = options_.ResolveThreads(0);
  const size_t workers =
      std::min(threads, std::max<size_t>(entries.size(), 1));
  util::ThreadPool* pool = EnsurePool(threads);
  // With a single worker the batch itself is serial, but each contract's
  // projection precompute can still use the shared executor.
  util::ThreadPool* precompute_pool = workers <= 1 ? pool : nullptr;

  CTDB_RETURN_NOT_OK(util::ParallelFor(pool, workers, [&](size_t w) {
    ltl::FormulaFactory local_factory;
    for (size_t i = w; i < entries.size(); i += workers) {
      built[i] = [&]() -> Result<std::unique_ptr<Contract>> {
        CTDB_ASSIGN_OR_RETURN(
            const ltl::Formula* spec,
            ltl::Parse(entries[i].ltl_text, &local_factory, vocab_));
        CTDB_ASSIGN_OR_RETURN(
            automata::Buchi ba,
            translate::LtlToBuchi(spec, &local_factory, options_.translate));
        // Id and clock are assigned at commit (phase 3).
        return BuildContract(0, entries[i].name, entries[i].ltl_text,
                             std::move(ba), events[i], 0, precompute_pool,
                             nullptr);
      }();
    }
    return Status::OK();
  }));
  for (const auto& b : built) {
    CTDB_RETURN_NOT_OK(b.status());
  }

  // Phase 3 (serial): assign ids and clocks, fill the shared index, commit.
  // One publication at the end — queries observe the whole batch or none of
  // it.
  std::vector<uint32_t> ids;
  ids.reserve(entries.size());
  for (size_t i = 0; i < built.size(); ++i) {
    std::unique_ptr<Contract>& contract = *built[i];
    contract->id = static_cast<uint32_t>(contracts_.size());
    contract->valid_from = clocks != nullptr ? (*clocks)[i] : clock_ + 1;
    if (options_.build_prefilter) {
      prefilter_.Insert(contract->id, contract->projections.original(),
                        contract->events);
    }
    ids.push_back(contract->id);
    contracts_.push_back(std::move(contract));
    live_.Resize(contracts_.size());
    live_.Set(ids.back());
    ops_ += 1;
    clock_ = contracts_.back()->valid_from;
  }
  Publish();
  return ids;
}

Result<EventId> ContractDatabase::InternEvent(std::string_view name) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  CTDB_ASSIGN_OR_RETURN(EventId id, vocab_.Intern(name));
  // Publish only when the published vocabulary lags: re-interning a known
  // event (the router does so for every cited event on every other shard)
  // changes nothing.
  if (published_vocab_->size() != vocab_.size()) Publish();
  return id;
}

Result<QueryResult> ContractDatabase::Query(std::string_view ltl_text,
                                            const QueryOptions& options) const {
  const std::shared_ptr<const DatabaseSnapshot> snapshot = Snapshot();
  return snapshot->Query(ltl_text, options, EnsurePool(options.threads));
}

Result<QueryResult> ContractDatabase::QueryFormula(
    const ltl::Formula* query, const QueryOptions& options) const {
  const std::shared_ptr<const DatabaseSnapshot> snapshot = Snapshot();
  return snapshot->QueryFormula(query, options, EnsurePool(options.threads));
}

Result<std::vector<QueryResult>> ContractDatabase::QueryBatch(
    const std::vector<std::string>& queries,
    const QueryOptions& options) const {
  const std::shared_ptr<const DatabaseSnapshot> snapshot = Snapshot();
  return snapshot->QueryBatch(queries, options, EnsurePool(options.threads));
}

obs::MetricsSnapshot ContractDatabase::MetricsSnapshot() const {
  return obs::MetricsRegistry::Default()->Snapshot();
}

}  // namespace ctdb::broker
