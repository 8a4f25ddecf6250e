// Workload definitions and seed-determined inputs of ctdb_perfbench.
//
// Inputs come in two parts, both drawn before the server starts so
// generation never shows in a metric:
//
//  - the corpus — preload contracts, the hot query set, the pool of fresh
//    query texts and the write texts — is drawn from the workload's own
//    fixed corpus seed. Query and registration costs are heavy-tailed per
//    text (one 3-property query can cost 100× another), so a corpus drawn
//    per run would make runs with different seeds measure different work;
//  - the op list — op order, which batch each batch slot gets,
//    Replace/Unregister targets and every stream instant — is drawn from
//    the run's `--seed`. The op list's composition (how often each text,
//    kind and batch size occurs) is fixed by the workload and `--seconds`
//    alone: the seed orders the work, it does not choose it. A latency
//    median over a heavy-tailed mix jumps whenever a few samples change
//    sides, so a seed that used one text once more than another moved it.
//
// Op counts are fixed by the workload, the size and `--seconds`, never by
// elapsed time.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "monitor/types.h"
#include "util/result.h"

namespace perfbench {

/// Op kinds, as the client issues them.
enum class Kind : uint8_t {
  kQuery,       ///< single Query at the latest clock
  kBatch,       ///< QueryBatch at the latest clock
  kAsOf,        ///< single Query as of the preload's acknowledged clock
  kRegister,
  kReplace,
  kUnregister,
  kOpen,        ///< StreamOpen
  kAppend,      ///< StreamAppend
  kClose,       ///< StreamClose
};
inline constexpr size_t kKinds = 9;
const char* KindName(Kind kind);
inline bool IsWrite(Kind k) {
  return k == Kind::kRegister || k == Kind::kReplace || k == Kind::kUnregister;
}

/// Static shape of one workload at one size.
struct WorkloadSpec {
  std::string name;
  uint64_t corpus_seed = 0;
  size_t shards = 0;        ///< 0 = unsharded DurableDatabase
  bool priming = false;     ///< preload starts with a contract citing p1..p20
  size_t preload = 0;       ///< generated preload contracts
  size_t preload_properties = 5;
  bool event_preload = false;  ///< preload from workload::EventSpecGenerator
  size_t hot = 0;           ///< hot query texts
  size_t ops_per_second = 0;   ///< op budget per `--seconds`
  size_t min_ops = 0;
  /// Rounds per run, each a set-up on a fresh directory and a window of
  /// the same op list.
  size_t rounds = 3;
};

/// Resolves a workload name ("query", "stream", "mixed-shard4") at a size
/// ("full" or "smoke"). NotFound for an unknown name.
ctdb::Result<WorkloadSpec> FindWorkload(const std::string& name,
                                        const std::string& size);

/// One client operation. Targets that depend on earlier acknowledgements
/// (own contracts, seen clocks) are picks resolved at run time.
struct Op {
  Kind kind = Kind::kQuery;
  /// kQuery/kBatch/kAsOf: indices into Inputs::queries;
  /// kRegister/kReplace: one index into Inputs::writes.
  std::vector<uint32_t> texts;
  /// kReplace/kUnregister: which owned contract.
  uint32_t pick = 0;
  /// kOpen/kAppend/kClose: which of the connection's two streams.
  uint8_t stream = 0;
  /// kAppend: the instants; `foreign` when drawn from a vocabulary no
  /// contract cites.
  ctdb::monitor::EventBatch events;
  bool foreign = false;
};

struct Inputs {
  uint64_t seed = 0;                 ///< the run's seed (op list)
  std::vector<std::string> preload;  ///< contract texts, registered in order
  std::vector<std::string> queries;  ///< [0, hot) hot set, then fresh texts
  size_t hot = 0;
  std::vector<std::string> writes;   ///< Register/Replace texts
  std::vector<Op> ops;               ///< the one connection's op list
};

/// Draws the corpus of `spec` and an op list from `seed`; `seconds` scales
/// the op count.
ctdb::Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                                double seconds);

/// "F (p1 | ... | p20)": cites every query event, so no generated query
/// fails the unknown-event check.
std::string PrimingLtl();

}  // namespace perfbench
