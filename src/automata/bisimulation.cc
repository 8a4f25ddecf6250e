#include "automata/bisimulation.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_map>

#include "util/hash.h"

namespace ctdb::automata {

void Partition::Canonicalize() {
  std::vector<uint32_t> rename(block_count, UINT32_MAX);
  uint32_t next = 0;
  for (uint32_t& b : block_of) {
    if (rename[b] == UINT32_MAX) rename[b] = next++;
    b = rename[b];
  }
  block_count = next;
}

bool Partition::Refines(const Partition& coarser) const {
  assert(block_of.size() == coarser.block_of.size());
  // For every pair in the same block here, they must share a block there.
  // Equivalent check: map block -> coarser block must be a function.
  std::vector<uint32_t> image(block_count, UINT32_MAX);
  for (size_t s = 0; s < block_of.size(); ++s) {
    const uint32_t b = block_of[s];
    if (image[b] == UINT32_MAX) {
      image[b] = coarser.block_of[s];
    } else if (image[b] != coarser.block_of[s]) {
      return false;
    }
  }
  return true;
}

Partition Partition::Meet(const Partition& other) const {
  assert(block_of.size() == other.block_of.size());
  Partition meet;
  meet.block_of.resize(block_of.size());
  std::unordered_map<uint64_t, uint32_t> block_of_pair;
  block_of_pair.reserve(block_of.size());
  for (size_t s = 0; s < block_of.size(); ++s) {
    const uint64_t pair =
        (static_cast<uint64_t>(block_of[s]) << 32) | other.block_of[s];
    meet.block_of[s] =
        block_of_pair
            .try_emplace(pair, static_cast<uint32_t>(block_of_pair.size()))
            .first->second;
  }
  meet.block_count = static_cast<uint32_t>(block_of_pair.size());
  return meet;
}

Partition Partition::Discrete(size_t n) {
  Partition p;
  p.block_of.resize(n);
  for (size_t i = 0; i < n; ++i) p.block_of[i] = static_cast<uint32_t>(i);
  p.block_count = static_cast<uint32_t>(n);
  return p;
}

Partition Partition::FinalSplit(const Buchi& ba) {
  Partition p;
  p.block_of.resize(ba.StateCount());
  for (StateId s = 0; s < ba.StateCount(); ++s) {
    p.block_of[s] = ba.IsFinal(s) ? 1 : 0;
  }
  p.block_count = 2;
  p.Canonicalize();
  return p;
}

LabeledTransitions LabeledTransitions::Of(const Buchi& ba,
                                          std::vector<Label>* labels) {
  LabeledTransitions moves;
  moves.first.reserve(ba.StateCount() + 1);
  moves.label.reserve(ba.TransitionCount());
  moves.to.reserve(ba.TransitionCount());
  labels->clear();
  std::unordered_map<uint64_t, std::vector<uint32_t>> ids_by_hash;
  for (StateId s = 0; s < ba.StateCount(); ++s) {
    moves.first.push_back(static_cast<uint32_t>(moves.label.size()));
    for (const Transition& t : ba.Out(s)) {
      std::vector<uint32_t>& bucket = ids_by_hash[t.label.Hash()];
      auto it = std::find_if(bucket.begin(), bucket.end(), [&](uint32_t id) {
        return (*labels)[id] == t.label;
      });
      if (it == bucket.end()) {
        bucket.push_back(static_cast<uint32_t>(labels->size()));
        labels->push_back(t.label);
        it = bucket.end() - 1;
      }
      moves.label.push_back(*it);
      moves.to.push_back(t.to);
    }
  }
  moves.first.push_back(static_cast<uint32_t>(moves.label.size()));
  return moves;
}

Partition RefineToBisimulation(const LabeledTransitions& moves,
                               const std::vector<uint32_t>& label_class,
                               Partition part) {
  const size_t n = moves.StateCount();
  assert(part.block_of.size() == n);
  part.Canonicalize();

  // Signatures are word-packed: word 0 is the state's current block, then
  // its sorted distinct moves, each one word (label class in the high half,
  // target block in the low half), so hashing and equality run over machine
  // words. The class halves are fixed, so they are looked up once.
  std::vector<uint64_t> class_word(moves.label.size());
  for (size_t t = 0; t < class_word.size(); ++t) {
    class_word[t] = static_cast<uint64_t>(label_class[moves.label[t]]) << 32;
  }
  std::vector<uint64_t> sig;
  std::vector<uint32_t> block_size;
  while (true) {
    block_size.assign(part.block_count, 0);
    for (uint32_t b : part.block_of) ++block_size[b];
    std::unordered_map<std::vector<uint64_t>, uint32_t, U64VectorHash>
        block_of_sig;
    block_of_sig.reserve(part.block_count * 2);
    std::vector<uint32_t> next(n);
    for (size_t s = 0; s < n; ++s) {
      sig.assign(1, part.block_of[s]);
      // A state alone in its block cannot split: its block is signature
      // enough.
      if (block_size[part.block_of[s]] > 1) {
        for (uint32_t t = moves.first[s]; t < moves.first[s + 1]; ++t) {
          sig.push_back(class_word[t] | part.block_of[moves.to[t]]);
        }
        std::sort(sig.begin() + 1, sig.end());
        sig.erase(std::unique(sig.begin() + 1, sig.end()), sig.end());
      }
      next[s] = block_of_sig
                    .try_emplace(sig, static_cast<uint32_t>(block_of_sig.size()))
                    .first->second;
    }
    // Word 0 keeps every state in its block, so the new partition refines
    // the old one: an equal block count means nothing split.
    const bool stable = block_of_sig.size() == part.block_count;
    part.block_of = std::move(next);
    part.block_count = static_cast<uint32_t>(block_of_sig.size());
    if (stable) return part;
  }
}

Partition CoarsestBisimulation(const Buchi& ba, const Partition* start) {
  std::vector<Label> labels;
  const LabeledTransitions moves = LabeledTransitions::Of(ba, &labels);
  std::vector<uint32_t> own_class(labels.size());
  std::iota(own_class.begin(), own_class.end(), 0u);
  return RefineToBisimulation(
      moves, own_class, start != nullptr ? *start : Partition::FinalSplit(ba));
}

}  // namespace ctdb::automata
