#include "checks.h"

#include <atomic>
#include <thread>

#include "automata/buchi.h"
#include "base/vocabulary.h"
#include "broker/durable.h"
#include "ltl/formula.h"
#include "ltl/parser.h"
#include "monitor/session.h"
#include "testing/reference.h"
#include "translate/ltl_to_ba.h"
#include "util/bitset.h"
#include "util/string_util.h"

namespace perfbench {

using ctdb::Result;
using ctdb::Status;

namespace {

/// Runs `task(i)` for every i in [0, n) on `threads` threads.
template <typename F>
void ParallelFor(size_t n, size_t threads, F task) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) task(i);
    });
  }
  for (std::thread& w : workers) w.join();
}

struct Automaton {
  ctdb::automata::Buchi ba;
  ctdb::Bitset events;  ///< events the formula cites
};

Result<Automaton> Translate(const std::string& text,
                            ctdb::ltl::FormulaFactory* factory,
                            ctdb::Vocabulary* vocab) {
  CTDB_ASSIGN_OR_RETURN(const ctdb::ltl::Formula* formula,
                        ctdb::ltl::Parse(text, factory, vocab));
  Automaton a;
  formula->CollectEvents(&a.events);
  CTDB_ASSIGN_OR_RETURN(a.ba, ctdb::translate::LtlToBuchi(formula, factory));
  return a;
}

}  // namespace

Result<Reference> Reference::Build(const std::vector<std::string>& contracts,
                                   const std::vector<std::string>& queries,
                                   size_t threads) {
  ctdb::Vocabulary vocab;
  ctdb::ltl::FormulaFactory factory;
  const std::set<std::string> distinct(contracts.begin(), contracts.end());
  const std::vector<std::string> texts(distinct.begin(), distinct.end());
  std::vector<Automaton> c;
  for (const std::string& text : texts) {
    CTDB_ASSIGN_OR_RETURN(Automaton a, Translate(text, &factory, &vocab));
    c.push_back(std::move(a));
  }
  std::vector<Automaton> q;
  for (const std::string& text : queries) {
    CTDB_ASSIGN_OR_RETURN(Automaton a, Translate(text, &factory, &vocab));
    q.push_back(std::move(a));
  }
  // ReferencePermits only reads its automata, so pairs run concurrently.
  std::vector<uint8_t> permits(q.size() * c.size(), 0);
  ParallelFor(permits.size(), threads, [&](size_t i) {
    const Automaton& contract = c[i % c.size()];
    permits[i] = ctdb::testing::ReferencePermits(contract.ba, contract.events,
                                                 q[i / c.size()].ba);
  });
  Reference r;
  for (const std::string& query : queries) r.permits_[query];
  for (size_t i = 0; i < permits.size(); ++i) {
    if (permits[i]) r.permits_[queries[i / c.size()]].insert(texts[i % c.size()]);
  }
  return r;
}

std::vector<uint32_t> Reference::Permitted(const LiveSet& live,
                                           const std::string& query) const {
  const std::set<std::string>& permitting = permits_.at(query);
  std::vector<uint32_t> ids;
  for (const auto& [id, text] : live) {
    if (permitting.count(text) != 0) ids.push_back(id);
  }
  return ids;
}

namespace {

std::string CheckStream(ctdb::broker::DurableDatabase* db,
                        const StreamSegment& segment) {
  ctdb::monitor::StreamOptions options;
  options.as_of = segment.clock;
  options.prune = false;
  auto session = ctdb::monitor::StreamSession::Open(db->Snapshot(), options);
  if (!session.ok()) return "replay open: " + session.status().ToString();
  if (!segment.instants.empty()) (*session)->Append(segment.instants);
  const ctdb::monitor::StreamCloseInfo replay = (*session)->Summary();
  if (replay.verdicts == segment.verdicts) return "";
  if (replay.verdicts.size() != segment.verdicts.size()) {
    return ctdb::StringFormat("close reported %zu verdicts, replay %zu",
                              segment.verdicts.size(), replay.verdicts.size());
  }
  for (size_t i = 0; i < replay.verdicts.size(); ++i) {
    if (!(replay.verdicts[i] == segment.verdicts[i])) {
      return ctdb::StringFormat(
          "contract %u: close said %s, replay %s",
          segment.verdicts[i].contract_id,
          ctdb::monitor::StreamVerdictName(segment.verdicts[i].verdict),
          ctdb::monitor::StreamVerdictName(replay.verdicts[i].verdict));
    }
  }
  return "";
}

}  // namespace

std::vector<std::string> CheckStreams(
    ctdb::broker::Broker* db, const std::vector<const StreamSegment*>& segments,
    size_t threads) {
  auto* durable = dynamic_cast<ctdb::broker::DurableDatabase*>(db);
  std::vector<std::string> diffs(segments.size());
  if (durable == nullptr) {
    for (std::string& d : diffs) d = "stream replay needs an unsharded database";
    return diffs;
  }
  ParallelFor(segments.size(), threads,
              [&](size_t i) { diffs[i] = CheckStream(durable, *segments[i]); });
  return diffs;
}

}  // namespace perfbench
