// Physical-algorithm building blocks.
//
// The paper notes that standard hash-based implementations do not preserve
// order and that it uses a Grace hash join plus order restoration (Sec. 2,
// "One word on implementation"). Our evaluator materializes inputs in order
// and probes hash structures in left-input order, with bucket lists kept in
// right-input order — which preserves the order of the defining nested-loop
// semantics exactly, so no separate restoration sort is needed. A Sort
// operator is provided anyway for experiments with order-destroying plans.
#ifndef NALQ_NAL_PHYSICAL_H_
#define NALQ_NAL_PHYSICAL_H_

#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "nal/analysis.h"
#include "nal/sequence.h"

namespace nalq::xml {
class Store;
}

namespace nalq::nal {

/// An atomized, hashable grouping/join key.
struct Key {
  std::vector<Value> values;

  bool operator==(const Key& other) const {
    if (values.size() != other.values.size()) return false;
    for (size_t i = 0; i < values.size(); ++i) {
      if (!values[i].Equals(other.values[i])) return false;
    }
    return true;
  }
};

struct KeyHash {
  size_t operator()(const Key& k) const noexcept {
    size_t h = 0x9e3779b97f4a7c15ull;
    for (const Value& v : k.values) h = h * 1099511628211ull + v.Hash();
    return h;
  }
};

/// Builds the atomized key of `tuple` over `attrs`. Nodes are atomized to
/// their string value; an item-sequence value yields one key per item
/// (XQuery general-comparison semantics) — only supported for single-attr
/// keys; multi-attribute keys require atomic values.
std::vector<Key> MakeKeys(const Tuple& tuple, std::span<const Symbol> attrs,
                          const xml::Store& store);

/// Allocation-reusing form: clears `*out` and fills it. A caller probing in
/// a loop keeps one scratch vector (and the Key vectors inside it) alive
/// across probes.
void MakeKeysInto(const Tuple& tuple, std::span<const Symbol> attrs,
                  const xml::Store& store, std::vector<Key>* out);

/// Hash index from key to input positions (positions kept in input order, so
/// probing preserves the right operand's order inside each bucket).
class HashIndex {
 public:
  void Build(const Sequence& input, std::span<const Symbol> attrs,
             const xml::Store& store);

  /// Positions matching any key of `probe` over `attrs` (deduplicated,
  /// ascending = right-input order).
  std::vector<uint32_t> Lookup(const Tuple& probe,
                               std::span<const Symbol> attrs,
                               const xml::Store& store) const;

  /// Allocation-reusing probe: `*scratch` and `*out` are cleared and reused
  /// across calls. `*out` holds the same positions Lookup would return.
  void LookupInto(const Tuple& probe, std::span<const Symbol> attrs,
                  const xml::Store& store, std::vector<Key>* scratch,
                  std::vector<uint32_t>* out) const;

  const std::vector<uint32_t>* LookupKey(const Key& k) const;

  size_t bucket_count() const { return map_.size(); }

 private:
  std::unordered_map<Key, std::vector<uint32_t>, KeyHash> map_;
};

/// Decomposition of a join predicate into equality conjuncts between left
/// and right attributes plus a residual predicate.
struct EquiPredicate {
  std::vector<Symbol> left_attrs;
  std::vector<Symbol> right_attrs;
  ExprPtr residual;  ///< nullptr when the predicate is pure equi
};

/// Extracts `l.a = r.b ∧ ...` conjuncts from `pred` given the attribute sets
/// of the two operands. A conjunct over an attribute in `typed_numbers`
/// (TypedNumberAttrs) stays in the residual: general `=` compares it
/// numerically, which a hash key cannot. Returns nullopt if no equality
/// conjunct exists (the evaluator then falls back to the nested-loop
/// definition).
std::optional<EquiPredicate> ExtractEquiPredicate(
    const ExprPtr& pred, const SymbolSet& left, const SymbolSet& right,
    const SymbolSet& typed_numbers = {});

/// ExtractEquiPredicate for a join-family operator's predicate over its two
/// children, with TypedNumberAttrs(op) as the excluded set — the one key
/// detection every executor and the cost model share.
std::optional<EquiPredicate> JoinEquiPredicate(const AlgebraOp& op);

/// True if a binary Γ (nest-join) hashes its key: θ is `=` and no
/// single-attribute key may hold a typed number. A typed single-attribute
/// key runs the θ loop with general `=` instead, which compares it
/// numerically; the loop takes one attribute only, so a multi-attribute key
/// is always hashed.
bool HashedNestJoin(const AlgebraOp& op);

}  // namespace nalq::nal

#endif  // NALQ_NAL_PHYSICAL_H_
