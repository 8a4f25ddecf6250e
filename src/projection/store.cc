#include "projection/store.h"

#include <algorithm>
#include <array>
#include <bit>
#include <mutex>
#include <optional>
#include <utility>

#include "automata/quotient.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace ctdb::projection {

using automata::Buchi;
using automata::Partition;

namespace {

/// Interns canonical partitions, deduplicating by content (hash prefilter,
/// exact comparison on collision).
class PartitionInterner {
 public:
  explicit PartitionInterner(std::vector<Partition>* partitions)
      : partitions_(partitions) {}

  uint32_t Intern(Partition part) {
    const uint64_t h =
        HashRange(part.block_of.begin(), part.block_of.end());
    auto& bucket = buckets_[h];
    for (uint32_t i : bucket) {
      if ((*partitions_)[i] == part) return i;
    }
    partitions_->push_back(std::move(part));
    const uint32_t id = static_cast<uint32_t>(partitions_->size() - 1);
    bucket.push_back(id);
    return id;
  }

 private:
  std::vector<Partition>* partitions_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> buckets_;
};

/// Assigns each distinct label its class under the projection onto `mask`
/// and returns the class count: labels share a class iff they agree on the
/// masked events in both polarities. Classes are numbered in order of first
/// occurrence.
uint32_t ClassesUnder(uint64_t mask, const std::vector<uint64_t>& pos,
                      const std::vector<uint64_t>& neg,
                      std::vector<uint32_t>* class_of) {
  struct WordPairHash {
    size_t operator()(const std::pair<uint64_t, uint64_t>& p) const {
      return static_cast<size_t>(HashCombine(p.first, p.second));
    }
  };
  std::unordered_map<std::pair<uint64_t, uint64_t>, uint32_t, WordPairHash>
      class_of_pair;
  class_of_pair.reserve(pos.size());
  class_of->resize(pos.size());
  for (size_t l = 0; l < pos.size(); ++l) {
    (*class_of)[l] =
        class_of_pair
            .try_emplace({pos[l] & mask, neg[l] & mask},
                         static_cast<uint32_t>(class_of_pair.size()))
            .first->second;
  }
  return static_cast<uint32_t>(class_of_pair.size());
}

}  // namespace

/// The lazy quotient cache, sharded by mask so concurrent queries hitting
/// the same contract rarely contend. A quotient is built while holding its
/// shard's lock, so every quotient is constructed exactly once (concurrent
/// requesters of the same mask block and then read the cached entry).
/// Values are held behind unique_ptr, so references handed out remain valid
/// across later insertions and rehashes.
struct ContractProjections::QuotientCache {
  static constexpr size_t kShards = 8;
  struct Shard {
    std::mutex mutex;
    std::unordered_map<EventMask, std::unique_ptr<const Buchi>> quotients;
  };
  std::array<Shard, kShards> shards;

  Shard& ShardFor(EventMask mask) {
    // Fibonacci scramble: masks are small dense integers, so the low bits
    // alone would pile popcount-adjacent masks into the same shard.
    return shards[(mask * 0x9E3779B97F4A7C15ull) >> 61];
  }
};

ContractProjections::ContractProjections() = default;
ContractProjections::~ContractProjections() = default;
ContractProjections::ContractProjections(ContractProjections&&) noexcept =
    default;
ContractProjections& ContractProjections::operator=(
    ContractProjections&&) noexcept = default;

ContractProjections::EventMask ContractProjections::MaskOf(
    const Bitset& events) const {
  EventMask mask = 0;
  for (size_t i = 0; i < event_list_.size(); ++i) {
    if (events.Test(event_list_[i])) mask |= EventMask{1} << i;
  }
  return mask;
}

Bitset ContractProjections::EventsOf(EventMask mask) const {
  Bitset events;
  for (size_t i = 0; i < event_list_.size(); ++i) {
    if ((mask >> i) & 1) {
      if (event_list_[i] >= events.size()) events.Resize(event_list_[i] + 1);
      events.Set(event_list_[i]);
    }
  }
  return events;
}

ContractProjections ContractProjections::WrapOnly(Buchi ba) {
  ContractProjections store;
  store.ba_ = std::move(ba);
  store.stats_.original_states = store.ba_.StateCount();
  return store;
}

ContractProjections ContractProjections::Precompute(
    Buchi ba, const ProjectionStoreOptions& options, util::ThreadPool* pool) {
  ContractProjections store;
  store.ba_ = std::move(ba);
  const Buchi& automaton = store.ba_;

  const Bitset cited = automaton.CitedEvents();
  for (size_t e : cited.Indices()) {
    store.event_list_.push_back(static_cast<EventId>(e));
  }
  const size_t m = store.event_list_.size();
  store.stats_.cited_events = m;
  store.stats_.original_states = automaton.StateCount();
  // Masks are one word: a contract citing more events keeps no projections,
  // and ForQueryEvents returns the registered automaton, as with WrapOnly.
  if (m > kMaxMaskEvents) return store;
  store.quotients_ = std::make_unique<QuotientCache>();
  store.full_mask_ = m == kMaxMaskEvents ? ~EventMask{0}
                                         : (EventMask{1} << m) - 1;

  // Word tables, scratch for this call: each distinct label as (pos, neg)
  // masks over the cited events, and each transition as (label id, target).
  // A label's class under mask M is its pair (pos & M, neg & M).
  std::vector<Label> labels;
  const automata::LabeledTransitions moves =
      automata::LabeledTransitions::Of(automaton, &labels);
  std::vector<EventMask> pos(labels.size());
  std::vector<EventMask> neg(labels.size());
  for (size_t l = 0; l < labels.size(); ++l) {
    for (size_t i = 0; i < m; ++i) {
      const EventMask bit = EventMask{1} << i;
      if (labels[l].positive().Test(store.event_list_[i])) pos[l] |= bit;
      if (labels[l].negative().Test(store.event_list_[i])) neg[l] |= bit;
    }
  }

  // P(full) refines every P(M) (Theorem 3), so it bounds each mask below.
  std::vector<uint32_t> full_classes;
  ClassesUnder(store.full_mask_, pos, neg, &full_classes);
  const Partition full = automata::RefineToBisimulation(
      moves, full_classes, Partition::FinalSplit(automaton));

  std::vector<EventMask> masks;
  if (m <= options.max_enumerated_events) {
    for (EventMask mask = 0; mask <= store.full_mask_; ++mask) {
      masks.push_back(mask);
    }
  } else {
    // Subsets up to max_subset_size, plus the full set.
    std::vector<EventMask> current{0};
    masks.push_back(0);
    for (size_t size = 1; size <= options.max_subset_size; ++size) {
      std::vector<EventMask> next;
      for (EventMask base : current) {
        const size_t low =
            base == 0 ? 0 : 64 - static_cast<size_t>(std::countl_zero(base));
        for (size_t i = low; i < m; ++i) {
          next.push_back(base | (EventMask{1} << i));
        }
      }
      masks.insert(masks.end(), next.begin(), next.end());
      current = std::move(next);
    }
    masks.push_back(store.full_mask_);
  }
  std::sort(masks.begin(), masks.end(), [](EventMask a, EventMask b) {
    const int pa = std::popcount(a);
    const int pb = std::popcount(b);
    return pa != pb ? pa < pb : a < b;
  });
  masks.erase(std::unique(masks.begin(), masks.end()), masks.end());

  // The partition for one mask, with its label-class count and whether it
  // took a refinement. Three rules settle most masks without one:
  //  - if M's labels fall into as many classes as under an immediate
  //    sub-mask M', they fall into the same classes, so P(M) = P(M');
  //  - otherwise P(M) refines P(M') for every immediate sub-mask M'
  //    (Theorem 3), so refinement starts from their meet;
  //  - P(full) refines P(M), so a meet with as many blocks as P(full) is
  //    already P(M) = P(full).
  // Reads only masks committed at strictly smaller popcounts and P(full),
  // so all masks of one popcount level can run concurrently.
  struct MaskResult {
    Partition partition;
    uint32_t classes = 0;
    bool refined = false;
  };
  std::unordered_map<EventMask, uint32_t> classes_of;  // committed masks
  auto compute_mask = [&](EventMask mask) -> MaskResult {
    std::vector<uint32_t> class_of;
    const uint32_t classes = ClassesUnder(mask, pos, neg, &class_of);
    if (mask == store.full_mask_) return {full, classes, false};
    std::optional<Partition> start;
    for (EventMask bits = mask; bits != 0; bits &= bits - 1) {
      const EventMask sub = mask & ~(EventMask{1} << std::countr_zero(bits));
      auto it = store.partition_of_.find(sub);
      if (it == store.partition_of_.end()) continue;
      const Partition& sub_partition = store.partitions_[it->second];
      if (classes_of.at(sub) == classes) {
        return {sub_partition, classes, false};
      }
      start = start ? start->Meet(sub_partition) : sub_partition;
    }
    if (!start) start = Partition::FinalSplit(automaton);
    if (start->block_count == full.block_count) return {full, classes, false};
    return {automata::RefineToBisimulation(moves, class_of, std::move(*start)),
            classes, true};
  };

  // Walk the lattice level by level; commit serially in mask order so the
  // interned partition ids — and thus the whole store — are identical to a
  // fully serial precomputation regardless of the pool.
  PartitionInterner interner(&store.partitions_);
  [[maybe_unused]] size_t refinements = 1;  // P(full)
  size_t level_start = 0;
  while (level_start < masks.size()) {
    size_t level_end = level_start + 1;
    while (level_end < masks.size() &&
           std::popcount(masks[level_end]) == std::popcount(masks[level_start])) {
      ++level_end;
    }
    const size_t count = level_end - level_start;
    std::vector<MaskResult> computed(count);
    const Status status = util::ParallelFor(pool, count, [&](size_t k) {
      computed[k] = compute_mask(masks[level_start + k]);
      return Status::OK();
    });
    if (!status.ok()) {
      // A pooled body threw (the pool reports it as Internal): redo the
      // level serially, so an out-of-memory style exception surfaces
      // exactly as it would have without a pool.
      for (size_t k = 0; k < count; ++k) {
        computed[k] = compute_mask(masks[level_start + k]);
      }
    }
    for (size_t k = 0; k < count; ++k) {
      const EventMask mask = masks[level_start + k];
      store.partition_of_.emplace(
          mask, interner.Intern(std::move(computed[k].partition)));
      classes_of.emplace(mask, computed[k].classes);
      refinements += computed[k].refined ? 1 : 0;
    }
    level_start = level_end;
  }

  store.stats_.subsets_computed = masks.size();
  store.stats_.distinct_partitions = store.partitions_.size();
  store.stats_.full_partition_blocks = full.block_count;
  for (const Partition& p : store.partitions_) {
    store.stats_.partition_memory_bytes += p.block_of.size() * sizeof(uint32_t);
  }
  CTDB_OBS_COUNT("projection.precomputes", 1);
  CTDB_OBS_COUNT("projection.subsets_computed", store.stats_.subsets_computed);
  CTDB_OBS_COUNT("projection.refinements", refinements);
  CTDB_OBS_HIST("projection.distinct_partitions_per_contract",
                store.stats_.distinct_partitions);
  return store;
}

const Buchi& ContractProjections::ForQueryEvents(
    const Bitset& query_label_events) const {
  if (partitions_.empty()) return ba_;  // not precomputed
  EventMask mask = MaskOf(query_label_events);
  auto entry = partition_of_.find(mask);
  if (entry == partition_of_.end()) {
    // No projection precomputed for this exact set: fall back to the full
    // set (language-preserving minimization) — always present.
    CTDB_OBS_COUNT("projection.fallback_full_set", 1);
    mask = full_mask_;
    entry = partition_of_.find(mask);
    if (entry == partition_of_.end()) return ba_;
  }

  // quotients_ is always allocated when partitions_ is non-empty
  // (Precompute is the only producer of both).
  QuotientCache::Shard& shard = quotients_->ShardFor(mask);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto cached = shard.quotients.find(mask);
  if (cached != shard.quotients.end()) {
    CTDB_OBS_COUNT("projection.quotient_cache_hits", 1);
    return *cached->second;
  }
  CTDB_OBS_COUNT("projection.quotient_cache_misses", 1);

  const Bitset retained = EventsOf(mask);
  auto quotient = std::make_unique<const Buchi>(automata::BuildQuotient(
      ba_, partitions_[entry->second], &retained, &retained));
  CTDB_OBS_HIST("projection.quotient_states", quotient->StateCount());
  const Buchi& ref = *quotient;
  shard.quotients.emplace(mask, std::move(quotient));
  return ref;
}

}  // namespace ctdb::projection
