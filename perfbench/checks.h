// Output checks of ctdb_perfbench, run outside the timed window.
//
// Query answers are held to testing::ReferencePermits over the contract
// texts the run itself registered — a model rebuilt from the benchmark's own
// bookkeeping, not from the database's stored automata. Stream verdicts are
// held to a fresh monitor::StreamSession replaying the same instants,
// pinned at the same clock, with pruning off.

#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "monitor/types.h"
#include "util/result.h"

namespace perfbench {

/// The live contract set as the client saw it acknowledged.
using LiveSet = std::map<uint32_t, std::string>;  ///< contract id → LTL text

/// Naive permission reference: which contract texts permit which query
/// texts, decided once per pair of texts.
class Reference {
 public:
  /// Checks every query against every distinct contract text, the product
  /// checks spread over `threads` threads.
  static ctdb::Result<Reference> Build(const std::vector<std::string>& contracts,
                                       const std::vector<std::string>& queries,
                                       size_t threads);

  /// Ids in `live` whose text permits `query` (one of the built queries),
  /// ascending.
  std::vector<uint32_t> Permitted(const LiveSet& live,
                                  const std::string& query) const;

 private:
  /// query text → the contract texts permitting it
  std::map<std::string, std::set<std::string>> permits_;
};

/// One stream from open to close, as the client saw it.
struct StreamSegment {
  uint64_t clock = 0;  ///< pinned clock the open reported
  ctdb::monitor::EventBatch instants;
  std::vector<ctdb::monitor::VerdictDelta> verdicts;  ///< close's verdicts
  bool closed = false;
};

/// Replays each closed segment on a fresh StreamSession over `db`'s
/// snapshot (`db` must be an unsharded broker::DurableDatabase), `threads`
/// at a time. One entry per closed segment: empty when the verdicts agree,
/// else a description of the first difference.
std::vector<std::string> CheckStreams(
    ctdb::broker::Broker* db, const std::vector<const StreamSegment*>& segments,
    size_t threads);

}  // namespace perfbench
