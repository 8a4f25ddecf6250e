#include "index/condition.h"

#include <unordered_set>

#include "util/hash.h"

namespace ctdb::index {

Condition::Condition() : Condition(True()) {}

Condition Condition::True() {
  static const Condition kTrue = Make(Kind::kTrue, Label(), {});
  return kTrue;
}

Condition Condition::False() {
  static const Condition kFalse = Make(Kind::kFalse, Label(), {});
  return kFalse;
}

Condition Condition::Leaf(Label label) {
  if (label.IsTrue()) return True();
  return Make(Kind::kLeaf, std::move(label), {});
}

Condition Condition::And(std::vector<Condition> children) {
  return Combine(Kind::kAnd, std::move(children));
}

Condition Condition::Or(std::vector<Condition> children) {
  return Combine(Kind::kOr, std::move(children));
}

Condition Condition::Make(Kind kind, Label label,
                          std::vector<Condition> children) {
  auto node = std::make_shared<Node>();
  node->kind = kind;
  node->label = std::move(label);
  node->children = std::move(children);
  node->hash = HashCombine(0, static_cast<uint64_t>(kind));
  if (kind == Kind::kLeaf) {
    node->hash = HashCombine(node->hash, node->label.Hash());
  }
  for (const Condition& child : node->children) {
    node->size += child.Size();
    node->hash = HashCombine(node->hash, child.Hash());
  }
  return Condition(std::move(node));
}

Condition Condition::Combine(Kind kind, std::vector<Condition> children) {
  const bool conjunction = kind == Kind::kAnd;
  const Kind absorbing = conjunction ? Kind::kFalse : Kind::kTrue;
  const Kind neutral = conjunction ? Kind::kTrue : Kind::kFalse;
  // Flatten same-kind children (copying handles, not subtrees) and drop the
  // neutral constant.
  std::vector<Condition> flat;
  flat.reserve(children.size());
  for (Condition& child : children) {
    const Kind k = child.kind();
    if (k == absorbing) return child;
    if (k == neutral) continue;
    if (k == kind) {
      flat.insert(flat.end(), child.children().begin(),
                  child.children().end());
    } else {
      flat.push_back(std::move(child));
    }
  }
  // Keep the first occurrence of each distinct child, in order. Hash buckets
  // confine deep comparisons to children whose hashes collide.
  auto hash = [](const Condition* c) { return c->Hash(); };
  auto equal = [](const Condition* a, const Condition* b) { return *a == *b; };
  std::unordered_set<const Condition*, decltype(hash), decltype(equal)> seen(
      flat.size());
  std::vector<Condition> unique;
  unique.reserve(flat.size());
  for (const Condition& c : flat) {
    if (seen.insert(&c).second) unique.push_back(c);
  }
  if (unique.empty()) return conjunction ? True() : False();
  if (unique.size() == 1) return std::move(unique[0]);
  return Make(kind, Label(), std::move(unique));
}

Bitset Condition::Evaluate(const PrefilterIndex& index) const {
  switch (kind()) {
    case Kind::kTrue:
      return index.universe();
    case Kind::kFalse:
      return Bitset(index.universe().size());
    case Kind::kLeaf: {
      Bitset result = index.Lookup(label());
      result.Resize(index.universe().size());
      return result;
    }
    case Kind::kAnd: {
      // Leaf children combine via the index's word-parallel AND-into kernel:
      // one pass over the accumulator per leaf, no per-leaf Bitset
      // materialization. Non-leaf children still evaluate recursively.
      Bitset result = index.universe();
      for (const Condition& child : children()) {
        if (child.kind() == Kind::kLeaf) {
          index.LookupAndInto(child.label(), &result);
        } else {
          result &= child.Evaluate(index);
        }
        if (result.None()) break;
      }
      return result;
    }
    case Kind::kOr: {
      Bitset result(index.universe().size());
      for (const Condition& child : children()) {
        if (child.kind() == Kind::kLeaf) {
          index.LookupOrInto(child.label(), &result);
        } else {
          result |= child.Evaluate(index);
        }
      }
      result.Resize(index.universe().size());
      return result;
    }
  }
  return index.universe();
}

std::string Condition::ToString(const Vocabulary& vocab) const {
  switch (kind()) {
    case Kind::kTrue:
      return "TRUE";
    case Kind::kFalse:
      return "FALSE";
    case Kind::kLeaf:
      return "S(" + label().ToString(vocab) + ")";
    case Kind::kAnd:
    case Kind::kOr: {
      std::string out = "(";
      for (size_t i = 0; i < children().size(); ++i) {
        if (i > 0) out += kind() == Kind::kAnd ? " & " : " | ";
        out += children()[i].ToString(vocab);
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

bool Condition::operator==(const Condition& other) const {
  if (node_ == other.node_) return true;
  const Node& a = *node_;
  const Node& b = *other.node_;
  if (a.hash != b.hash || a.kind != b.kind || a.size != b.size) return false;
  if (a.kind == Kind::kLeaf) return a.label == b.label;
  return a.children == b.children;
}

}  // namespace ctdb::index
