// Pruning conditions (Section 4.1): monotone ∧/∨ expressions over S(λ)
// lookups, evaluated against the prefilter index to produce a candidate
// contract set.
//
// A Condition is a handle to an immutable, reference-counted node. Copying
// one, or making it the child of a bigger condition, shares the subtree
// instead of copying it — Algorithm 1 conjoins each memoized upstream
// condition with one more label per incoming edge, and that step must not
// cost the size of the upstream tree. Every node caches its tree size and a
// structural hash at construction, so Size() is O(1) and And/Or find
// duplicate children by hash bucket instead of comparing every pair. Like a
// shared_ptr, a moved-from Condition holds no node: only assign or destroy
// it.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "base/label.h"
#include "index/prefilter.h"
#include "util/bitset.h"

namespace ctdb::index {

/// \brief A monotone condition tree. Leaves are query-BA labels (evaluated as
/// S(λ)); `true` evaluates to the universe and `false` to the empty set.
class Condition {
 public:
  enum class Kind : uint8_t { kTrue, kFalse, kLeaf, kAnd, kOr };

  /// Default-constructs as TRUE (the neutral, prune-nothing condition).
  Condition();

  static Condition True();
  static Condition False();
  static Condition Leaf(Label label);

  /// Conjunction with simplification: false absorbs, true drops out, nested
  /// ANDs are flattened, and children equal to an earlier one are dropped
  /// (first occurrences keep their order).
  static Condition And(std::vector<Condition> children);
  /// Disjunction, dual simplifications.
  static Condition Or(std::vector<Condition> children);

  Kind kind() const { return node_->kind; }
  const Label& label() const { return node_->label; }
  const std::vector<Condition>& children() const { return node_->children; }

  /// Evaluates against `index`: the resulting contract set is guaranteed to
  /// contain every contract satisfying the condition (monotonicity makes the
  /// S'() over-approximation sound, §4.2).
  Bitset Evaluate(const PrefilterIndex& index) const;

  /// Number of nodes in the tree: a subterm shared by several parents counts
  /// once per occurrence, as Evaluate() and ToString() walk it. O(1).
  size_t Size() const { return node_->size; }

  /// Structural hash, consistent with ==: labels hash by their literals,
  /// whatever their bitset capacity.
  uint64_t Hash() const { return node_->hash; }

  /// e.g. "((S(miss) & S(changeApproved)) | S(flightCanceled))".
  std::string ToString(const Vocabulary& vocab) const;

  bool operator==(const Condition& other) const;

 private:
  struct Node {
    Kind kind = Kind::kTrue;
    Label label;                      ///< kLeaf only
    std::vector<Condition> children;  ///< kAnd / kOr only
    size_t size = 1;
    uint64_t hash = 0;
  };

  explicit Condition(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}
  static Condition Make(Kind kind, Label label,
                        std::vector<Condition> children);
  /// And (kind kAnd) or Or (kind kOr) with the simplifications above.
  static Condition Combine(Kind kind, std::vector<Condition> children);

  std::shared_ptr<const Node> node_;
};

}  // namespace ctdb::index
