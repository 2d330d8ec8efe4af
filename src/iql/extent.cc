#include "iql/extent.h"

#include <algorithm>

#include "base/logging.h"
#include "model/type_algebra.h"

namespace iqlkit {

Status ExtentEnumerator::Charge(uint64_t n) {
  produced_ += n;
  if (produced_ > budget_) {
    if (governor_ != nullptr) {
      return governor_->TripNow(TripReason::kExtent);
    }
    return ResourceExhaustedError(
        "type-extent enumeration exceeded its budget of " +
        std::to_string(budget_) +
        " values; the program ranges an unrestricted variable over an "
        "exponential type interpretation (cf. Example 3.4.2)");
  }
  return Status::Ok();
}

Result<const std::vector<ValueId>*> ExtentEnumerator::Enumerate(TypeId t) {
  auto it = cache_.find(t);
  if (it != cache_.end()) {
    ++cache_hits_;
    return &it->second;
  }
  ++cache_misses_;
  IQL_ASSIGN_OR_RETURN(std::vector<ValueId> values, Compute(t));
  auto [pos, inserted] = cache_.emplace(t, std::move(values));
  IQL_CHECK(inserted);
  return &pos->second;
}

Result<std::vector<ValueId>> ExtentEnumerator::Compute(TypeId t) {
  Universe* u = instance_->universe();
  TypePool& types = u->types();
  ValueStore& values = u->values();
  // Instances enforce disjoint oid assignments, so intersections can be
  // compiled away up front (Prop 2.2.1 (2)).
  if (!types.IsIntersectionFree(t)) {
    t = EliminateIntersection(&types, t);
  }
  const TypeNode node = types.node(t);  // copy: pool may grow below
  std::vector<ValueId> out;
  switch (node.kind) {
    case TypeKind::kEmpty:
      break;
    case TypeKind::kBase: {
      for (Symbol atom : instance_->ConstantAtoms()) {
        out.push_back(values.ConstSymbol(atom));
      }
      break;
    }
    case TypeKind::kClass: {
      for (Oid o : instance_->ClassExtent(node.class_name)) {
        out.push_back(values.OfOid(o));
      }
      break;
    }
    case TypeKind::kSet: {
      IQL_ASSIGN_OR_RETURN(const std::vector<ValueId>* elems,
                           Enumerate(node.children[0]));
      if (elems->size() > 30) {
        return ResourceExhaustedError(
            "set-type extent over " + std::to_string(elems->size()) +
            " elements is astronomically large");
      }
      uint64_t count = uint64_t{1} << elems->size();
      IQL_RETURN_IF_ERROR(Charge(count));
      out.reserve(count);
      for (uint64_t mask = 0; mask < count; ++mask) {
        if (governor_ != nullptr) IQL_RETURN_IF_ERROR(governor_->Poll());
        std::vector<ValueId> subset;
        for (size_t i = 0; i < elems->size(); ++i) {
          if (mask & (uint64_t{1} << i)) subset.push_back((*elems)[i]);
        }
        out.push_back(values.Set(std::move(subset)));
      }
      break;
    }
    case TypeKind::kTuple: {
      std::vector<const std::vector<ValueId>*> field_extents;
      uint64_t count = 1;
      for (const auto& [attr, ft] : node.fields) {
        IQL_ASSIGN_OR_RETURN(const std::vector<ValueId>* ext,
                             Enumerate(ft));
        field_extents.push_back(ext);
        if (ext->empty()) {
          count = 0;
          break;
        }
        if (count > budget_ / ext->size() + 1) {
          return ResourceExhaustedError("tuple-type extent too large");
        }
        count *= ext->size();
      }
      IQL_RETURN_IF_ERROR(Charge(count));
      if (count == 0) break;
      std::vector<size_t> idx(node.fields.size(), 0);
      for (uint64_t k = 0; k < count; ++k) {
        if (governor_ != nullptr) IQL_RETURN_IF_ERROR(governor_->Poll());
        std::vector<std::pair<Symbol, ValueId>> fields;
        fields.reserve(node.fields.size());
        for (size_t i = 0; i < node.fields.size(); ++i) {
          fields.emplace_back(node.fields[i].first,
                              (*field_extents[i])[idx[i]]);
        }
        out.push_back(values.Tuple(std::move(fields)));
        for (size_t i = 0; i < idx.size(); ++i) {
          if (++idx[i] < field_extents[i]->size()) break;
          idx[i] = 0;
        }
      }
      break;
    }
    case TypeKind::kUnion: {
      for (TypeId child : node.children) {
        IQL_ASSIGN_OR_RETURN(const std::vector<ValueId>* ext,
                             Enumerate(child));
        out.insert(out.end(), ext->begin(), ext->end());
      }
      break;
    }
    case TypeKind::kIntersect:
      return InternalError("intersection survived elimination");
  }
  IQL_RETURN_IF_ERROR(Charge(out.size()));
  // Canonical structural order, independent of the store's interning
  // history.
  std::sort(out.begin(), out.end(),
            [&values](ValueId a, ValueId b) { return values.Less(a, b); });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace iqlkit
