#include "testing/differential.h"

#include <algorithm>
#include <sstream>

#include "automata/word.h"
#include "broker/persistence.h"
#include "core/permission.h"
#include "ltl/evaluator.h"
#include "ltl/parser.h"
#include "monitor/session.h"
#include "testing/generators.h"
#include "testing/metamorphic.h"
#include "testing/reference.h"
#include "testing/universe.h"
#include "translate/ltl_to_ba.h"
#include "util/string_util.h"
#include "workload/events.h"
#include "workload/generator.h"

namespace ctdb::testing {

namespace {

/// A contract id that no database in a diff run can contain; injecting it
/// into an answer is guaranteed to be a detectable corruption.
constexpr uint32_t kPhantomMatch = 1u << 30;

std::vector<uint32_t> Sorted(std::vector<uint32_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::string RenderMatches(const std::vector<uint32_t>& m) {
  std::string out = "{";
  for (size_t i = 0; i < m.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(m[i]);
  }
  return out + "}";
}

/// Collects the state of one RunDifferential iteration.
class Iteration {
 public:
  Iteration(uint64_t seed, const DiffOptions& options, DiffReport* report)
      : seed_(seed), options_(options), report_(report) {}

  void Run();

 private:
  void Report(const char* oracle, std::string detail) {
    report_->mismatches.push_back(
        DiffMismatch{DiffMode::kPipeline, seed_, oracle, std::move(detail)});
  }

  /// One comparison of two match vectors; returns true when they agree.
  bool CompareMatches(const char* oracle, const std::string& query,
                      const std::vector<uint32_t>& expected,
                      const std::vector<uint32_t>& actual) {
    ++report_->checks;
    if (Sorted(expected) == Sorted(actual)) return true;
    Report(oracle, "query '" + query + "': expected " +
                       RenderMatches(Sorted(expected)) + " got " +
                       RenderMatches(Sorted(actual)));
    return false;
  }

  void CheckUnindexed();
  void CheckBatch();
  void CheckThreaded();
  void CheckPersistence();
  void CheckReference();
  void CheckMetamorphic();
  void CheckTranslationSubstrate();

  uint64_t seed_;
  const DiffOptions& options_;
  DiffReport* report_;

  std::unique_ptr<broker::ContractDatabase> db_;
  std::vector<std::string> queries_;
  std::vector<std::vector<uint32_t>> baseline_;  ///< serial indexed matches
};

void Iteration::Run() {
  RandomDatabaseSpec spec;
  spec.contracts = options_.contracts;
  spec.contract_patterns = options_.contract_patterns;
  spec.vocabulary_size = options_.vocabulary_size;
  auto db = RandomDatabase(spec, seed_);
  if (!db.ok()) {
    Report("generator", "RandomDatabase failed: " + db.status().ToString());
    return;
  }
  db_ = std::move(*db);
  auto queries = RandomQueries(db_.get(), options_.query_patterns,
                               options_.queries, seed_ ^ 0x51C0FFEEULL,
                               options_.vocabulary_size);
  if (!queries.ok()) {
    Report("generator", "RandomQueries failed: " + queries.status().ToString());
    return;
  }
  queries_ = std::move(*queries);

  // Serial, fully indexed baseline every other configuration must match.
  for (const std::string& q : queries_) {
    auto r = db_->Query(q);
    if (!r.ok()) {
      Report("pipeline", "baseline Query('" + q + "') failed: " +
                             r.status().ToString());
      return;
    }
    baseline_.push_back(std::move(r->matches));
  }

  CheckUnindexed();
  CheckBatch();
  CheckThreaded();
  CheckPersistence();
  CheckReference();
  CheckMetamorphic();
  CheckTranslationSubstrate();
}

void Iteration::CheckUnindexed() {
  broker::QueryOptions unindexed;
  unindexed.use_prefilter = false;
  unindexed.use_projections = false;
  unindexed.permission.use_seeds = false;
  for (size_t i = 0; i < queries_.size(); ++i) {
    auto r = db_->Query(queries_[i], unindexed);
    if (!r.ok()) {
      Report("indexed-vs-unindexed", "unindexed Query failed: " +
                                         r.status().ToString());
      return;
    }
    if (options_.faults.corrupt_unindexed) r->matches.push_back(kPhantomMatch);
    if (!CompareMatches("indexed-vs-unindexed", queries_[i], baseline_[i],
                        r->matches)) {
      return;
    }
  }
}

void Iteration::CheckBatch() {
  auto batch = db_->QueryBatch(queries_);
  if (!batch.ok()) {
    Report("batch-vs-serial", "QueryBatch failed: " + batch.status().ToString());
    return;
  }
  if (options_.faults.corrupt_batch && !batch->empty()) {
    (*batch)[0].matches.push_back(kPhantomMatch);
  }
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (!CompareMatches("batch-vs-serial", queries_[i], baseline_[i],
                        (*batch)[i].matches)) {
      return;
    }
  }
}

void Iteration::CheckThreaded() {
  broker::QueryOptions threaded;
  threaded.threads = options_.threads;
  for (size_t i = 0; i < queries_.size(); ++i) {
    auto r = db_->Query(queries_[i], threaded);
    if (!r.ok()) {
      Report("threaded-vs-serial", "threaded Query failed: " +
                                       r.status().ToString());
      return;
    }
    if (options_.faults.corrupt_threaded) r->matches.push_back(kPhantomMatch);
    if (!CompareMatches("threaded-vs-serial", queries_[i], baseline_[i],
                        r->matches)) {
      return;
    }
  }
}

void Iteration::CheckPersistence() {
  std::stringstream stream;
  Status save = broker::SaveDatabase(*db_, &stream);
  if (!save.ok()) {
    Report("persistence-roundtrip", "save failed: " + save.ToString());
    return;
  }
  auto reloaded = broker::LoadDatabase(stream);
  if (!reloaded.ok()) {
    Report("persistence-roundtrip",
           "load failed: " + reloaded.status().ToString());
    return;
  }
  ++report_->checks;
  if ((*reloaded)->size() != db_->size()) {
    Report("persistence-roundtrip",
           StringFormat("size changed across roundtrip: %zu -> %zu",
                        db_->size(), (*reloaded)->size()));
    return;
  }
  for (size_t i = 0; i < queries_.size(); ++i) {
    auto r = (*reloaded)->Query(queries_[i]);
    if (!r.ok()) {
      Report("persistence-roundtrip", "reloaded Query failed: " +
                                          r.status().ToString());
      return;
    }
    if (options_.faults.corrupt_reloaded) r->matches.push_back(kPhantomMatch);
    if (!CompareMatches("persistence-roundtrip", queries_[i], baseline_[i],
                        r->matches)) {
      return;
    }
  }
}

void Iteration::CheckReference() {
  for (size_t i = 0; i < queries_.size(); ++i) {
    auto qf = ltl::Parse(queries_[i], db_->factory(), db_->vocabulary(),
                         {.require_known_events = true});
    if (!qf.ok()) {
      Report("reference-permission",
             "query reparse failed: " + qf.status().ToString());
      return;
    }
    auto qba = translate::LtlToBuchi(*qf, db_->factory(),
                                     db_->options().translate);
    if (!qba.ok()) {
      Report("reference-permission",
             "query translation failed: " + qba.status().ToString());
      return;
    }
    std::vector<uint32_t> reference_matches;
    for (uint32_t id = 0; id < db_->size(); ++id) {
      const broker::Contract& c = db_->contract(id);
      ++report_->checks;
      bool expected = ReferencePermits(c.automaton(), c.events, *qba);
      if (options_.faults.flip_reference && id == 0 && i == 0) {
        expected = !expected;
      }
      const bool actual = core::Permits(c.automaton(), c.events, *qba, {},
                                        &c.seed_states);
      if (expected != actual) {
        Report("reference-permission",
               StringFormat("contract %u, query '%s': reference=%d core=%d",
                            id, queries_[i].c_str(), expected ? 1 : 0,
                            actual ? 1 : 0));
        return;
      }
      if (expected) reference_matches.push_back(id);
    }
    // The full pipeline's answer must equal the naive per-contract sweep.
    if (!CompareMatches("reference-permission", queries_[i], reference_matches,
                        baseline_[i])) {
      return;
    }
  }
}

void Iteration::CheckMetamorphic() {
  std::vector<MetamorphicTransform> transforms = EquivalenceTransforms();
  if (options_.faults.break_metamorphic) {
    transforms.push_back({"broken-fg-swap", BrokenSwapFinallyGlobally});
  }
  Rng rng(seed_ ^ 0x3E7Au);
  for (size_t i = 0; i < queries_.size(); ++i) {
    auto qf = ltl::Parse(queries_[i], db_->factory(), db_->vocabulary(),
                         {.require_known_events = true});
    if (!qf.ok()) {
      Report("metamorphic", "query reparse failed: " + qf.status().ToString());
      return;
    }
    Bitset query_events;
    (*qf)->CollectEvents(&query_events);
    for (const MetamorphicTransform& t : transforms) {
      const ltl::Formula* tf = t.apply(*qf, db_->factory());
      // Semantic probe: equivalent formulas agree on every word.
      for (size_t w = 0; w < options_.words_per_formula; ++w) {
        const LassoWord word =
            RandomWord(&rng, db_->vocabulary()->size(), 3, 3);
        ++report_->checks;
        if (ltl::Evaluate(*qf, word) != ltl::Evaluate(tf, word)) {
          Report("metamorphic",
                 "transform '" + std::string(t.name) + "' changed the verdict"
                 " of '" + queries_[i] + "' on " +
                 word.ToString(*db_->vocabulary()));
          return;
        }
      }
      // Pipeline probe: match sets agree on contracts citing every query
      // event (for other contracts Definition 1(b) makes permission depend
      // on the cited-event set, which transforms may legitimately shrink).
      auto r = db_->QueryFormula(tf);
      if (!r.ok()) {
        Report("metamorphic", "transformed query failed: " +
                                  r.status().ToString());
        return;
      }
      for (uint32_t id = 0; id < db_->size(); ++id) {
        if (!query_events.IsSubsetOf(db_->contract(id).events)) continue;
        ++report_->checks;
        const bool base = std::count(baseline_[i].begin(), baseline_[i].end(),
                                     id) > 0;
        const bool got = std::count(r->matches.begin(), r->matches.end(),
                                    id) > 0;
        if (base != got) {
          Report("metamorphic",
                 StringFormat("transform '%s' flipped contract %u on '%s'",
                              t.name, id, queries_[i].c_str()));
          return;
        }
      }
    }
  }
}

/// Self-contained translation-layer oracles over a tiny private vocabulary:
/// print/parse round-trip and evaluator-vs-automaton agreement.
void Iteration::CheckTranslationSubstrate() {
  const size_t kEvents = 3;
  Vocabulary vocab = TestVocabulary(kEvents);
  ltl::FormulaFactory fac;
  Rng rng(seed_ ^ 0x7AB1EAUL);
  for (int trial = 0; trial < 3; ++trial) {
    const ltl::Formula* f = RandomFormula(&rng, &fac, kEvents, 3);
    const std::string printed = f->ToString(vocab);
    auto reparsed = ltl::Parse(printed, &fac, &vocab);
    ++report_->checks;
    if (!reparsed.ok() || *reparsed != f) {
      Report("print-parse-roundtrip",
             "'" + printed + "' did not round-trip: " +
                 (reparsed.ok() ? (*reparsed)->ToString(vocab)
                                : reparsed.status().ToString()));
      return;
    }
    auto ba = translate::LtlToBuchi(f, &fac);
    if (!ba.ok()) {
      Report("evaluator-vs-automaton",
             "translation failed for '" + printed + "': " +
                 ba.status().ToString());
      return;
    }
    for (size_t w = 0; w < options_.words_per_formula; ++w) {
      const LassoWord word = RandomWord(&rng, kEvents, 3, 3);
      ++report_->checks;
      if (ltl::Evaluate(f, word) != automata::AcceptsWord(*ba, word)) {
        Report("evaluator-vs-automaton",
               "'" + printed + "' disagrees on " + word.ToString(vocab));
        return;
      }
    }
  }
}

/// One RunLifecycleDifferential iteration: evolve, record, probe.
class LifecycleIteration {
 public:
  LifecycleIteration(uint64_t seed, const LifecycleDiffOptions& options,
                     DiffReport* report)
      : seed_(seed), options_(options), report_(report) {}

  void Run();

 private:
  /// One live contract in the model: enough to re-register it verbatim.
  struct ModelEntry {
    uint32_t id = 0;
    std::string name;
    std::string ltl;
  };

  void Report(const char* oracle, std::string detail) {
    report_->mismatches.push_back(
        DiffMismatch{DiffMode::kLifecycle, seed_, oracle, std::move(detail)});
  }

  bool ProbeTick(uint64_t tick, const std::vector<ModelEntry>& model,
                 const broker::ContractDatabase& reloaded);

  uint64_t seed_;
  const LifecycleDiffOptions& options_;
  DiffReport* report_;

  std::unique_ptr<broker::ContractDatabase> db_;
  std::vector<std::string> queries_;
};

void LifecycleIteration::Run() {
  db_ = std::make_unique<broker::ContractDatabase>();
  workload::GeneratorOptions gen_options;
  gen_options.vocabulary_size = options_.vocabulary_size;
  gen_options.properties = options_.contract_patterns;
  workload::SpecGenerator generator(gen_options, seed_, db_->vocabulary(),
                                    db_->factory());
  Rng rng(seed_ ^ 0x11FEC7C1Eu);  // lifecycle stream choices

  std::vector<ModelEntry> live;  // ascending by id (ids are never reused)
  std::vector<std::pair<uint64_t, std::vector<ModelEntry>>> timeline;
  size_t names = 0;

  for (size_t m = 0; m < options_.mutations; ++m) {
    const uint64_t dice = rng.Uniform(4);
    if (live.empty() || dice < 2) {
      auto gen = generator.Next();
      if (!gen.ok()) {
        Report("generator", "spec draw failed: " + gen.status().ToString());
        return;
      }
      const std::string name = "c" + std::to_string(names++);
      auto id = db_->Register(name, gen->text);
      if (!id.ok()) {
        Report("lifecycle", "Register failed: " + id.status().ToString());
        return;
      }
      live.push_back(ModelEntry{*id, name, gen->text});
    } else if (dice == 2) {
      const size_t pick = static_cast<size_t>(rng.Uniform(live.size()));
      auto at = db_->Unregister(live[pick].id);
      if (!at.ok()) {
        Report("lifecycle", "Unregister failed: " + at.status().ToString());
        return;
      }
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    } else {
      const size_t pick = static_cast<size_t>(rng.Uniform(live.size()));
      auto gen = generator.Next();
      if (!gen.ok()) {
        Report("generator", "spec draw failed: " + gen.status().ToString());
        return;
      }
      auto at = db_->Replace(live[pick].id, gen->text);
      if (!at.ok()) {
        Report("lifecycle", "Replace failed: " + at.status().ToString());
        return;
      }
      live[pick].ltl = gen->text;
    }
    timeline.emplace_back(db_->last_sequence(), live);
  }

  auto queries = RandomQueries(db_.get(), options_.query_patterns,
                               options_.queries, seed_ ^ 0x51C0FFEEULL,
                               options_.vocabulary_size);
  if (!queries.ok()) {
    Report("generator", "RandomQueries failed: " + queries.status().ToString());
    return;
  }
  queries_ = std::move(*queries);

  // The evolved database — holes, history and all — must round-trip
  // through persistence with every sampled time-travel answer intact.
  std::stringstream stream;
  Status save = broker::SaveDatabase(*db_, &stream);
  if (!save.ok()) {
    Report("lifecycle-persist", "save failed: " + save.ToString());
    return;
  }
  auto reloaded = broker::LoadDatabase(stream);
  if (!reloaded.ok()) {
    Report("lifecycle-persist",
           "load failed: " + reloaded.status().ToString());
    return;
  }

  // Probe evenly spaced ticks, always including the final state (where
  // as_of == clock exercises the latest-path clamp).
  const size_t n = timeline.size();
  const size_t samples = std::min(options_.sample_ticks, n);
  for (size_t j = 0; j < samples; ++j) {
    const size_t at = (samples == 1) ? n - 1 : j * (n - 1) / (samples - 1);
    if (!ProbeTick(timeline[at].first, timeline[at].second, **reloaded)) {
      return;
    }
  }
}

bool LifecycleIteration::ProbeTick(uint64_t tick,
                                   const std::vector<ModelEntry>& model,
                                   const broker::ContractDatabase& reloaded) {
  // Fresh database holding exactly the prefix's live set. The full
  // vocabulary is interned first so query texts parse identically (events
  // cited only by dead contracts stay known, as they do in the evolved db).
  broker::ContractDatabase fresh;
  for (const std::string& name : db_->vocabulary()->names()) {
    auto interned = fresh.InternEvent(name);
    if (!interned.ok()) {
      Report("as-of-vs-prefix",
             "intern failed: " + interned.status().ToString());
      return false;
    }
  }
  for (const ModelEntry& entry : model) {
    auto id = fresh.Register(entry.name, entry.ltl);
    if (!id.ok()) {
      Report("as-of-vs-prefix",
             "prefix Register failed: " + id.status().ToString());
      return false;
    }
  }

  // The same queries as one parallel batch: each answer must equal the
  // single as-of answer below, witnesses included.
  broker::QueryOptions batched;
  batched.as_of = tick;
  batched.collect_witnesses = true;
  batched.threads = 4;
  auto batch = db_->QueryBatch(queries_, batched);
  if (!batch.ok()) {
    Report("as-of-batch", "QueryBatch failed: " + batch.status().ToString());
    return false;
  }

  for (size_t i = 0; i < queries_.size(); ++i) {
    const std::string& q = queries_[i];
    broker::QueryOptions as_of;
    as_of.as_of = tick;
    as_of.collect_witnesses = true;
    auto r = db_->Query(q, as_of);
    if (!r.ok()) {
      Report("as-of-vs-prefix", "QueryAsOf failed: " + r.status().ToString());
      return false;
    }
    const broker::QueryResult& b = (*batch)[i];
    auto same_word = [](const LassoWord& x, const LassoWord& y) {
      return x.prefix == y.prefix && x.cycle == y.cycle;
    };
    ++report_->checks;
    if (b.matches != r->matches ||
        !std::equal(b.witnesses.begin(), b.witnesses.end(),
                    r->witnesses.begin(), r->witnesses.end(), same_word)) {
      Report("as-of-batch",
             StringFormat("tick %llu query '%s': batch %s vs single %s",
                          static_cast<unsigned long long>(tick), q.c_str(),
                          RenderMatches(b.matches).c_str(),
                          RenderMatches(r->matches).c_str()));
      return false;
    }
    auto f = fresh.Query(q);
    if (!f.ok()) {
      Report("as-of-vs-prefix",
             "prefix Query failed: " + f.status().ToString());
      return false;
    }
    // The fresh database assigned dense ids in model order; map back.
    std::vector<uint32_t> expected;
    expected.reserve(f->matches.size());
    for (uint32_t dense : f->matches) expected.push_back(model[dense].id);
    ++report_->checks;
    if (Sorted(expected) != Sorted(r->matches)) {
      Report("as-of-vs-prefix",
             StringFormat("tick %llu query '%s': expected %s got %s",
                          static_cast<unsigned long long>(tick), q.c_str(),
                          RenderMatches(Sorted(expected)).c_str(),
                          RenderMatches(Sorted(r->matches)).c_str()));
      return false;
    }

    // Witnesses: one per match, each satisfying the query formula.
    ++report_->checks;
    if (r->witnesses.size() != r->matches.size()) {
      Report("as-of-witnesses",
             StringFormat("tick %llu query '%s': %zu matches, %zu witnesses",
                          static_cast<unsigned long long>(tick), q.c_str(),
                          r->matches.size(), r->witnesses.size()));
      return false;
    }
    auto qf = ltl::Parse(q, db_->factory(), db_->vocabulary(),
                         {.require_known_events = true});
    if (!qf.ok()) {
      Report("as-of-witnesses",
             "query reparse failed: " + qf.status().ToString());
      return false;
    }
    for (size_t w = 0; w < r->witnesses.size(); ++w) {
      ++report_->checks;
      if (!ltl::Evaluate(*qf, r->witnesses[w])) {
        Report("as-of-witnesses",
               StringFormat("tick %llu query '%s': witness for contract %u "
                            "does not satisfy the query",
                            static_cast<unsigned long long>(tick), q.c_str(),
                            r->matches[w]));
        return false;
      }
    }

    // The reloaded database must time-travel identically.
    broker::QueryOptions reload_as_of;
    reload_as_of.as_of = tick;
    auto rr = reloaded.Query(q, reload_as_of);
    if (!rr.ok()) {
      Report("lifecycle-persist",
             "reloaded QueryAsOf failed: " + rr.status().ToString());
      return false;
    }
    ++report_->checks;
    if (Sorted(rr->matches) != Sorted(r->matches)) {
      Report("lifecycle-persist",
             StringFormat("tick %llu query '%s': reloaded %s vs live %s",
                          static_cast<unsigned long long>(tick), q.c_str(),
                          RenderMatches(Sorted(rr->matches)).c_str(),
                          RenderMatches(Sorted(r->matches)).c_str()));
      return false;
    }
  }
  return true;
}

std::string RenderVerdicts(const std::vector<monitor::VerdictDelta>& v) {
  std::string out = "{";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(v[i].contract_id);
    out += ":";
    out += monitor::StreamVerdictName(v[i].verdict);
  }
  return out + "}";
}

/// One RunMonitorDifferential iteration: one universe, one trace, five
/// oracles.
class MonitorIteration {
 public:
  MonitorIteration(uint64_t seed, const MonitorDiffOptions& options,
                   DiffReport* report)
      : seed_(seed), options_(options), report_(report) {}

  void Run();

 private:
  void Report(const char* oracle, std::string detail) {
    report_->mismatches.push_back(
        DiffMismatch{DiffMode::kMonitor, seed_, oracle, std::move(detail)});
  }

  bool CompareVerdicts(const char* oracle, const char* when,
                       const std::vector<monitor::VerdictDelta>& expected,
                       const std::vector<monitor::VerdictDelta>& actual) {
    ++report_->checks;
    if (expected == actual) return true;
    Report(oracle, StringFormat("%s: expected %s got %s", when,
                                RenderVerdicts(expected).c_str(),
                                RenderVerdicts(actual).c_str()));
    return false;
  }

  bool CheckViolatedSoundness(
      const std::vector<monitor::VerdictDelta>& verdicts,
      const std::vector<Snapshot>& trace, Rng* rng);

  uint64_t seed_;
  const MonitorDiffOptions& options_;
  DiffReport* report_;

  std::unique_ptr<broker::ContractDatabase> db_;
};

void MonitorIteration::Run() {
  db_ = std::make_unique<broker::ContractDatabase>();
  workload::GeneratorOptions gen_options;
  gen_options.vocabulary_size = options_.vocabulary_size;
  gen_options.properties = options_.contract_patterns;
  workload::EventSpecGenerator generator(gen_options, seed_,
                                         db_->vocabulary(), db_->factory());
  for (size_t c = 0; c < options_.contracts; ++c) {
    auto gen = generator.Next();
    if (!gen.ok()) {
      Report("generator", "event spec draw failed: " + gen.status().ToString());
      return;
    }
    auto id = db_->Register("c" + std::to_string(c), gen->text);
    if (!id.ok()) {
      Report("generator", "Register failed: " + id.status().ToString());
      return;
    }
  }

  const auto snapshot = db_->Snapshot();
  auto open = [&](bool prune) {
    monitor::StreamOptions stream_options;
    stream_options.prune = prune;
    return monitor::StreamSession::Open(snapshot, stream_options);
  };
  auto batched = open(true);
  auto single = open(true);
  auto noprune = open(false);
  if (!batched.ok() || !single.ok() || !noprune.ok()) {
    Report("monitor", "StreamSession::Open failed: " +
                          batched.status().ToString());
    return;
  }

  // Naive side, one per tracked contract in the same (ascending id) order.
  std::vector<NaiveStepper> naive;
  for (uint32_t id = 0; id < snapshot->slot_count(); ++id) {
    if (const broker::Contract* c = snapshot->contract_or_null(id)) {
      naive.emplace_back(c);
    }
  }

  // Running verdict map the deltas are applied to (delta-vs-summary).
  std::vector<monitor::VerdictDelta> applied =
      (*batched)->Summary().verdicts;

  workload::TraceOptions matched_options;
  matched_options.vocabulary_size = options_.vocabulary_size;
  workload::TraceOptions mismatched_options = matched_options;
  mismatched_options.prefix = "q";  // cited by no contract: pruning path
  workload::TraceGenerator matched(matched_options, seed_ ^ 0x7ACEDULL);
  workload::TraceGenerator mismatched(mismatched_options,
                                      seed_ ^ 0x0FFBEA7ULL);
  Rng lasso_rng(seed_ ^ 0x1A550ULL);

  std::vector<Snapshot> trace;  // resolved instants for the lasso probe
  bool flip_pending = options_.flip_naive;
  for (size_t b = 0; b < options_.batches; ++b) {
    const monitor::EventBatch batch = (b % 2 == 0 ? matched : mismatched)
                                          .NextBatch(options_.batch_events);
    const monitor::StreamAppendResult result = (*batched)->Append(batch);
    for (const std::vector<std::string>& instant : batch) {
      (*single)->Append({instant});
    }
    (*noprune)->Append(batch);

    const Vocabulary& vocab = snapshot->vocabulary();
    for (const std::vector<std::string>& instant : batch) {
      Snapshot s(vocab.size());
      for (const std::string& name : instant) {
        if (auto id = vocab.Find(name); id.ok()) s.Set(*id);
      }
      for (NaiveStepper& stepper : naive) stepper.Step(s);
      trace.push_back(std::move(s));
    }

    const monitor::StreamCloseInfo summary = (*batched)->Summary();
    std::vector<monitor::VerdictDelta> expected = summary.verdicts;
    for (size_t i = 0; i < naive.size(); ++i) {
      expected[i].verdict = naive[i].Verdict();
    }
    if (flip_pending && !expected.empty()) {
      flip_pending = false;
      auto& v = expected[0].verdict;
      v = v == monitor::StreamVerdict::kViolated
              ? monitor::StreamVerdict::kSatisfied
              : monitor::StreamVerdict::kViolated;
    }
    const std::string when = StringFormat("batch %zu", b);
    if (!CompareVerdicts("incremental-vs-naive", when.c_str(), expected,
                         summary.verdicts)) {
      return;
    }

    for (const monitor::VerdictDelta& delta : result.deltas) {
      for (monitor::VerdictDelta& entry : applied) {
        if (entry.contract_id == delta.contract_id) {
          entry.verdict = delta.verdict;
          break;
        }
      }
    }
    if (!CompareVerdicts("delta-vs-summary", when.c_str(), applied,
                         summary.verdicts)) {
      return;
    }
  }

  const monitor::StreamCloseInfo final_summary = (*batched)->Summary();
  if (!CompareVerdicts("batch-vs-single", "final", final_summary.verdicts,
                       (*single)->Summary().verdicts)) {
    return;
  }
  if (!CompareVerdicts("prune-vs-noprune", "final", final_summary.verdicts,
                       (*noprune)->Summary().verdicts)) {
    return;
  }
  CheckViolatedSoundness(final_summary.verdicts, trace, &lasso_rng);
}

bool MonitorIteration::CheckViolatedSoundness(
    const std::vector<monitor::VerdictDelta>& verdicts,
    const std::vector<Snapshot>& trace, Rng* rng) {
  const auto snapshot = db_->Snapshot();
  const size_t vocab_size = snapshot->vocabulary().size();
  for (const monitor::VerdictDelta& v : verdicts) {
    if (v.verdict != monitor::StreamVerdict::kViolated) continue;
    const broker::Contract* contract =
        snapshot->contract_or_null(v.contract_id);
    if (contract == nullptr) continue;
    ltl::FormulaFactory factory;
    auto formula = ltl::Parse(contract->ltl_text, &factory,
                              snapshot->vocabulary());
    if (!formula.ok()) {
      Report("violated-soundness", "reparse failed: " +
                                       formula.status().ToString());
      return false;
    }
    for (size_t probe = 0; probe < options_.lassos_per_violation; ++probe) {
      LassoWord word;
      word.prefix = trace;
      const size_t extra = rng->Uniform(3);
      for (size_t i = 0; i < extra; ++i) {
        word.prefix.push_back(RandomSnapshot(rng, vocab_size));
      }
      const size_t cycle = 1 + rng->Uniform(3);
      for (size_t i = 0; i < cycle; ++i) {
        word.cycle.push_back(RandomSnapshot(rng, vocab_size));
      }
      ++report_->checks;
      if (ltl::Evaluate(*formula, word)) {
        Report("violated-soundness",
               StringFormat("contract %u is violated on the trace but its "
                            "formula holds on a lasso extension (probe %zu)",
                            v.contract_id, probe));
        return false;
      }
    }
  }
  return true;
}

}  // namespace

DiffReport RunDifferential(const DiffOptions& options) {
  DiffReport report;
  for (size_t i = 0; i < options.iters; ++i) {
    if (report.mismatches.size() >= options.max_mismatches) break;
    Iteration iteration(options.seed + i, options, &report);
    iteration.Run();
    ++report.iterations;
  }
  return report;
}

DiffReport RunLifecycleDifferential(const LifecycleDiffOptions& options) {
  DiffReport report;
  for (size_t i = 0; i < options.iters; ++i) {
    if (report.mismatches.size() >= options.max_mismatches) break;
    LifecycleIteration iteration(options.seed + i, options, &report);
    iteration.Run();
    ++report.iterations;
  }
  return report;
}

DiffReport RunMonitorDifferential(const MonitorDiffOptions& options) {
  DiffReport report;
  for (size_t i = 0; i < options.iters; ++i) {
    if (report.mismatches.size() >= options.max_mismatches) break;
    MonitorIteration iteration(options.seed + i, options, &report);
    iteration.Run();
    ++report.iterations;
  }
  return report;
}

std::string FormatMismatch(const DiffMismatch& m) {
  const char* flag = m.mode == DiffMode::kLifecycle ? " --lifecycle"
                     : m.mode == DiffMode::kMonitor ? " --monitor"
                                                    : "";
  return StringFormat(
      "oracle=%s seed=%llu: %s (reproduce: ctdb_diff_fuzz%s --iters=1 "
      "--seed=%llu)",
      m.oracle.c_str(), static_cast<unsigned long long>(m.seed),
      m.detail.c_str(), flag, static_cast<unsigned long long>(m.seed));
}

}  // namespace ctdb::testing
