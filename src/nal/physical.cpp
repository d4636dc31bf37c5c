#include "nal/physical.h"

#include <algorithm>

#include "xml/store.h"

namespace nalq::nal {

namespace {

/// Atomizes one value; item sequences are returned item-wise.
void AtomizedItems(const Value& v, const xml::Store& store,
                   std::vector<Value>* out) {
  switch (v.kind()) {
    case ValueKind::kItemSeq:
      for (const Value& item : v.AsItems()) {
        out->push_back(item.Atomize(store));
      }
      return;
    case ValueKind::kTupleSeq: {
      // Single-attribute tuple sequences behave like item sequences.
      for (const Tuple& t : v.AsTuples()) {
        if (t.size() == 1) {
          out->push_back(t.slots()[0].second.Atomize(store));
        }
      }
      return;
    }
    default:
      out->push_back(v.Atomize(store));
  }
}

}  // namespace

void MakeKeysInto(const Tuple& tuple, std::span<const Symbol> attrs,
                  const xml::Store& store, std::vector<Key>* out) {
  // Overwrite `out` in place so a probe loop reuses both the outer vector
  // and the per-key value vectors instead of reallocating per probe.
  size_t used = 0;
  auto slot = [&]() -> Key& {
    if (used == out->size()) out->emplace_back();
    Key& k = (*out)[used++];
    k.values.clear();
    return k;
  };
  if (attrs.size() == 1) {
    static thread_local std::vector<Value> items;
    items.clear();
    AtomizedItems(tuple.Get(attrs[0]), store, &items);
    for (Value& v : items) {
      Key& k = slot();
      k.values.push_back(std::move(v));
      // Deduplicate: the same value occurring twice in one sequence must not
      // yield the tuple twice in a bucket.
      bool seen = false;
      for (size_t i = 0; i + 1 < used; ++i) {
        if ((*out)[i] == k) {
          seen = true;
          break;
        }
      }
      if (seen) --used;  // drop the duplicate; its slot is reused next
    }
    out->resize(used);
    return;
  }
  Key& k = slot();
  k.values.reserve(attrs.size());
  for (Symbol a : attrs) {
    k.values.push_back(tuple.Get(a).Atomize(store));
  }
  out->resize(used);
}

std::vector<Key> MakeKeys(const Tuple& tuple, std::span<const Symbol> attrs,
                          const xml::Store& store) {
  std::vector<Key> keys;
  MakeKeysInto(tuple, attrs, store, &keys);
  return keys;
}

void HashIndex::Build(const Sequence& input, std::span<const Symbol> attrs,
                      const xml::Store& store) {
  map_.clear();
  map_.reserve(input.size());
  std::vector<Key> keys;
  for (uint32_t i = 0; i < input.size(); ++i) {
    MakeKeysInto(input[i], attrs, store, &keys);
    for (Key& k : keys) {
      map_[std::move(k)].push_back(i);
    }
  }
}

void HashIndex::LookupInto(const Tuple& probe, std::span<const Symbol> attrs,
                           const xml::Store& store, std::vector<Key>* scratch,
                           std::vector<uint32_t>* out) const {
  out->clear();
  MakeKeysInto(probe, attrs, store, scratch);
  for (const Key& k : *scratch) {
    auto it = map_.find(k);
    if (it == map_.end()) continue;
    out->insert(out->end(), it->second.begin(), it->second.end());
  }
  if (scratch->size() > 1) {
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
  }
}

std::vector<uint32_t> HashIndex::Lookup(const Tuple& probe,
                                        std::span<const Symbol> attrs,
                                        const xml::Store& store) const {
  std::vector<uint32_t> out;
  std::vector<Key> keys;
  LookupInto(probe, attrs, store, &keys, &out);
  return out;
}

const std::vector<uint32_t>* HashIndex::LookupKey(const Key& k) const {
  auto it = map_.find(k);
  return it == map_.end() ? nullptr : &it->second;
}

namespace {

void FlattenConjuncts(const ExprPtr& pred, std::vector<ExprPtr>* out) {
  if (pred->kind == ExprKind::kAnd) {
    FlattenConjuncts(pred->children[0], out);
    FlattenConjuncts(pred->children[1], out);
  } else {
    out->push_back(pred);
  }
}

}  // namespace

std::optional<EquiPredicate> ExtractEquiPredicate(
    const ExprPtr& pred, const SymbolSet& left, const SymbolSet& right,
    const SymbolSet& typed_numbers) {
  std::vector<ExprPtr> conjuncts;
  FlattenConjuncts(pred, &conjuncts);
  EquiPredicate out;
  std::vector<ExprPtr> residual;
  for (const ExprPtr& c : conjuncts) {
    if (c->kind == ExprKind::kCmp && c->cmp == CmpOp::kEq &&
        c->children[0]->kind == ExprKind::kAttrRef &&
        c->children[1]->kind == ExprKind::kAttrRef) {
      Symbol a = c->children[0]->attr;
      Symbol b = c->children[1]->attr;
      if (typed_numbers.count(a) != 0 || typed_numbers.count(b) != 0) {
        residual.push_back(c);
        continue;
      }
      if (left.count(a) != 0 && right.count(b) != 0) {
        out.left_attrs.push_back(a);
        out.right_attrs.push_back(b);
        continue;
      }
      if (left.count(b) != 0 && right.count(a) != 0) {
        out.left_attrs.push_back(b);
        out.right_attrs.push_back(a);
        continue;
      }
    }
    residual.push_back(c);
  }
  if (out.left_attrs.empty()) return std::nullopt;
  for (const ExprPtr& r : residual) {
    out.residual = out.residual == nullptr ? r : MakeAnd(out.residual, r);
  }
  return out;
}

std::optional<EquiPredicate> JoinEquiPredicate(const AlgebraOp& op) {
  return ExtractEquiPredicate(op.pred, OutputAttrs(*op.child(0)).attrs,
                              OutputAttrs(*op.child(1)).attrs,
                              TypedNumberAttrs(op));
}

bool HashedNestJoin(const AlgebraOp& op) {
  if (op.theta != CmpOp::kEq) return false;
  if (op.left_attrs.size() != 1) return true;
  SymbolSet typed = TypedNumberAttrs(op);
  return typed.count(op.left_attrs[0]) == 0 &&
         typed.count(op.right_attrs[0]) == 0;
}

}  // namespace nalq::nal
