#include "model/instance.h"

#include <string>
#include <utility>

#include "base/logging.h"

namespace iqlkit {

namespace {
// Only ever handed out empty, so the null-store comparator is never called.
const ValueIdSet kEmptyValueSet{ValueLess{nullptr}};
const std::set<Oid> kEmptyOidSet;

// Map equality up to empty entries: removals leave an emptied relation's or
// class's key in place, and that holds the same facts as no key at all.
template <typename Map>
bool EqualIgnoringEmpty(const Map& a, const Map& b) {
  auto skip = [](auto it, auto end) {
    while (it != end && it->second.empty()) ++it;
    return it;
  };
  auto i = skip(a.begin(), a.end());
  auto j = skip(b.begin(), b.end());
  while (i != a.end() && j != b.end()) {
    if (i->first != j->first || !(i->second == j->second)) return false;
    i = skip(++i, a.end());
    j = skip(++j, b.end());
  }
  return i == a.end() && j == b.end();
}
}  // namespace

Instance::RelationExtent& Instance::MutableRelation(Symbol relation) {
  auto it = relations_.find(relation);
  if (it == relations_.end()) {
    RelationExtent fresh{ValueIdSet(ValueLess{&universe_->values()}), {}};
    it = relations_.emplace(relation, std::move(fresh)).first;
  }
  return it->second;
}

Status Instance::AddToRelation(Symbol relation, ValueId v) {
  if (!schema_->HasRelation(relation)) {
    return NotFoundError("unknown relation '" +
                         std::string(universe_->Name(relation)) + "'");
  }
  // A duplicate is caught by the id probe and never reaches the ordered
  // set's structural compares.
  RelationExtent& extent = MutableRelation(relation);
  if (!extent.members.insert(v)) return Status::Ok();
  extent.ordered.insert(v);
  if (journal_ != nullptr) {
    journal_->push_back({FactOp::Kind::kRelationAdd, relation, Oid{}, v, {}});
  }
  return Status::Ok();
}

Status Instance::AddToRelation(std::string_view relation, ValueId v) {
  return AddToRelation(universe_->Intern(relation), v);
}

Result<Oid> Instance::CreateOid(Symbol cls) {
  if (!schema_->HasClass(cls)) {
    return NotFoundError("unknown class '" +
                         std::string(universe_->Name(cls)) + "'");
  }
  Oid o = universe_->MintOid();
  IQL_RETURN_IF_ERROR(AddOid(cls, o));
  return o;
}

Result<Oid> Instance::CreateOid(std::string_view cls) {
  return CreateOid(universe_->Intern(cls));
}

Status Instance::AddOid(Symbol cls, Oid o) {
  if (!schema_->HasClass(cls)) {
    return NotFoundError("unknown class '" +
                         std::string(universe_->Name(cls)) + "'");
  }
  auto it = class_of_.find(o);
  if (it != class_of_.end()) {
    if (it->second == cls) return Status::Ok();
    return FailedPreconditionError(
        "oid @" + std::to_string(o.raw) + " already belongs to class '" +
        std::string(universe_->Name(it->second)) +
        "' (class assignments must be disjoint, Def 2.1.2)");
  }
  class_of_.emplace(o, cls);
  classes_[cls].insert(o);
  if (journal_ != nullptr) {
    journal_->push_back({FactOp::Kind::kOidAdd, cls, o, kInvalidValue, {}});
  }
  if (schema_->IsSetValuedClass(cls)) {
    // Condition (3) of Def 2.3.2: nu is total on set-valued classes; a
    // fresh oid's value defaults to the empty set (Remark 2.3.3).
    nu_.emplace(o, universe_->values().EmptySet());
  }
  return Status::Ok();
}

Status Instance::SetOidValue(Oid o, ValueId v) {
  auto cls = class_of_.find(o);
  if (cls == class_of_.end()) {
    return NotFoundError("oid @" + std::to_string(o.raw) +
                         " not in any class of this instance");
  }
  auto it = nu_.find(o);
  if (it != nu_.end()) {
    if (it->second == v) return Status::Ok();
    return FailedPreconditionError(
        "nu(@" + std::to_string(o.raw) +
        ") already defined; values are write-once");
  }
  nu_.emplace(o, v);
  if (journal_ != nullptr) {
    journal_->push_back({FactOp::Kind::kOidValue, kInvalidSymbol, o, v, {}});
  }
  return Status::Ok();
}

Status Instance::AddToSetOid(Oid o, ValueId elem) {
  auto cls = class_of_.find(o);
  if (cls == class_of_.end()) {
    return NotFoundError("oid @" + std::to_string(o.raw) +
                         " not in any class of this instance");
  }
  if (!schema_->IsSetValuedClass(cls->second)) {
    return FailedPreconditionError(
        "oid @" + std::to_string(o.raw) + " of class '" +
        std::string(universe_->Name(cls->second)) + "' is not set-valued");
  }
  auto it = nu_.find(o);
  ValueId base =
      it == nu_.end() ? universe_->values().EmptySet() : it->second;
  ValueId updated = universe_->values().SetInsert(base, elem);
  if (updated != base && journal_ != nullptr) {
    journal_->push_back({FactOp::Kind::kSetAdd, kInvalidSymbol, o, elem, {}});
  }
  nu_[o] = updated;
  return Status::Ok();
}

void Instance::NameOid(Oid o, std::string_view name) {
  oid_names_[o] = std::string(name);
  if (journal_ != nullptr) {
    journal_->push_back({FactOp::Kind::kOidName, kInvalidSymbol, o,
                         kInvalidValue, std::string(name)});
  }
}

bool Instance::RemoveFromRelation(Symbol relation, ValueId v) {
  auto it = relations_.find(relation);
  if (it == relations_.end()) return false;
  bool removed = it->second.members.erase(v);
  if (removed) it->second.ordered.erase(v);
  if (removed && journal_ != nullptr) {
    journal_->push_back(
        {FactOp::Kind::kRelationRemove, relation, Oid{}, v, {}});
  }
  return removed;
}

bool Instance::RemoveFromSetOid(Oid o, ValueId elem) {
  auto cls = class_of_.find(o);
  if (cls == class_of_.end() || !schema_->IsSetValuedClass(cls->second)) {
    return false;
  }
  auto it = nu_.find(o);
  if (it == nu_.end()) return false;
  const ValueStore& values = universe_->values();
  if (!values.SetContains(it->second, elem)) return false;
  std::vector<ValueId> remaining;
  for (ValueId e : values.node(it->second).elems) {
    if (e != elem) remaining.push_back(e);
  }
  it->second = universe_->values().Set(std::move(remaining));
  if (journal_ != nullptr) {
    journal_->push_back(
        {FactOp::Kind::kSetRemove, kInvalidSymbol, o, elem, {}});
  }
  return true;
}

bool Instance::ClearOidValue(Oid o) {
  auto cls = class_of_.find(o);
  if (cls == class_of_.end()) return false;
  bool cleared;
  if (schema_->IsSetValuedClass(cls->second)) {
    auto it = nu_.find(o);
    ValueId empty = universe_->values().EmptySet();
    if (it == nu_.end() || it->second == empty) return false;
    it->second = empty;
    cleared = true;
  } else {
    cleared = nu_.erase(o) > 0;
  }
  if (cleared && journal_ != nullptr) {
    journal_->push_back(
        {FactOp::Kind::kOidValueClear, kInvalidSymbol, o, kInvalidValue, {}});
  }
  return cleared;
}

size_t Instance::DeleteOidCascade(Oid seed) {
  if (!HasOid(seed)) return 0;
  // The cascade is a deterministic function of (instance, seed), so one op
  // suffices: replay re-runs the same cascade through this same method.
  if (journal_ != nullptr) {
    journal_->push_back(
        {FactOp::Kind::kOidDelete, kInvalidSymbol, seed, kInvalidValue, {}});
  }
  ValueStore& values = universe_->values();
  std::set<Oid> deleted;
  std::vector<Oid> worklist = {seed};
  auto mentions = [&](ValueId v) {
    std::set<Oid> oids;
    values.CollectOids(v, &oids);
    for (Oid d : deleted) {
      if (oids.count(d)) return true;
    }
    return false;
  };
  while (!worklist.empty()) {
    Oid o = worklist.back();
    worklist.pop_back();
    if (deleted.count(o) || !HasOid(o)) continue;
    deleted.insert(o);
    Symbol cls = class_of_.at(o);
    classes_[cls].erase(o);
    class_of_.erase(o);
    nu_.erase(o);
    oid_names_.erase(o);
    // Erase relation tuples mentioning any deleted oid.
    for (auto& [rel, extent] : relations_) {
      ValueIdSet& tuples = extent.ordered;
      for (auto it = tuples.begin(); it != tuples.end();) {
        if (mentions(*it)) {
          extent.members.erase(*it);
          it = tuples.erase(it);
        } else {
          ++it;
        }
      }
    }
    // Strip deleted oids out of set values; cascade through non-set values.
    for (auto& [other, v] : nu_) {
      auto ocls = class_of_.find(other);
      if (ocls == class_of_.end()) continue;
      if (schema_->IsSetValuedClass(ocls->second)) {
        std::vector<ValueId> remaining;
        bool changed = false;
        for (ValueId e : values.node(v).elems) {
          if (mentions(e)) {
            changed = true;
          } else {
            remaining.push_back(e);
          }
        }
        if (changed) v = universe_->values().Set(std::move(remaining));
      } else if (mentions(v)) {
        worklist.push_back(other);
      }
    }
  }
  return deleted.size();
}

const ValueIdSet& Instance::Relation(Symbol name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? kEmptyValueSet : it->second.ordered;
}

const std::set<Oid>& Instance::ClassExtent(Symbol name) const {
  auto it = classes_.find(name);
  return it == classes_.end() ? kEmptyOidSet : it->second;
}

bool Instance::RelationContains(Symbol name, ValueId v) const {
  auto it = relations_.find(name);
  return it != relations_.end() && it->second.members.contains(v);
}

std::optional<ValueId> Instance::ValueOf(Oid o) const {
  auto it = nu_.find(o);
  if (it == nu_.end()) return std::nullopt;
  return it->second;
}

std::optional<Symbol> Instance::ClassOf(Oid o) const {
  auto it = class_of_.find(o);
  if (it == class_of_.end()) return std::nullopt;
  return it->second;
}

bool Instance::OidInClass(Oid o, Symbol cls) const {
  auto it = class_of_.find(o);
  return it != class_of_.end() && it->second == cls;
}

std::set<Oid> Instance::Objects() const {
  std::set<Oid> out;
  const ValueStore& values = universe_->values();
  for (const auto& [cls, oids] : classes_) {
    out.insert(oids.begin(), oids.end());
  }
  for (const auto& [rel, extent] : relations_) {
    for (ValueId v : extent.ordered) values.CollectOids(v, &out);
  }
  for (const auto& [o, v] : nu_) {
    out.insert(o);
    values.CollectOids(v, &out);
  }
  return out;
}

std::set<Symbol> Instance::ConstantAtoms() const {
  std::set<Symbol> out;
  const ValueStore& values = universe_->values();
  for (const auto& [rel, extent] : relations_) {
    for (ValueId v : extent.ordered) values.CollectConsts(v, &out);
  }
  for (const auto& [o, v] : nu_) values.CollectConsts(v, &out);
  return out;
}

std::string Instance::OidLabel(Oid o) const {
  auto it = oid_names_.find(o);
  if (it != oid_names_.end()) return it->second;
  return "@" + std::to_string(o.raw);
}

Status Instance::Validate() const {
  TypeMembership membership(&universe_->types(), &universe_->values(), this);
  const ValueStore& values = universe_->values();

  // Condition (1): rho(R) subset of T(R)'s interpretation.
  for (const auto& [rel, extent] : relations_) {
    TypeId t = schema_->RelationType(rel);
    for (ValueId v : extent.ordered) {
      if (!membership.Contains(t, v)) {
        return TypeError("value " + values.ToString(v) + " in relation '" +
                         std::string(universe_->Name(rel)) +
                         "' is not of type " +
                         universe_->types().ToString(t));
      }
    }
  }
  // Conditions (2) and (3): nu-values typed; nu total on set-valued classes.
  for (const auto& [cls, oids] : classes_) {
    TypeId t = schema_->ClassType(cls);
    bool set_valued = schema_->IsSetValuedClass(cls);
    for (Oid o : oids) {
      auto v = ValueOf(o);
      if (!v.has_value()) {
        if (set_valued) {
          return TypeError("nu undefined for set-valued oid " + OidLabel(o));
        }
        continue;  // non-set oids may be undefined (incomplete information)
      }
      if (!membership.Contains(t, *v)) {
        return TypeError("nu(" + OidLabel(o) + ") = " + values.ToString(*v) +
                         " is not of type " + universe_->types().ToString(t));
      }
    }
  }
  // Oid closure: every oid occurring anywhere belongs to some class.
  for (Oid o : Objects()) {
    if (!HasOid(o)) {
      return TypeError("oid @" + std::to_string(o.raw) +
                       " occurs in the instance but belongs to no class");
    }
  }
  return Status::Ok();
}

Instance Instance::Project(const Schema* sub) const {
  return Project(std::shared_ptr<const Schema>(sub, [](const Schema*) {}));
}

Instance Instance::Project(std::shared_ptr<const Schema> sub_ptr) const {
  const Schema* sub = sub_ptr.get();
  Instance out(std::move(sub_ptr), universe_);
  for (Symbol r : sub->relation_names()) {
    auto it = relations_.find(r);
    if (it != relations_.end()) out.relations_.emplace(r, it->second);
  }
  for (Symbol p : sub->class_names()) {
    auto it = classes_.find(p);
    if (it == classes_.end()) continue;
    out.classes_[p] = it->second;
    for (Oid o : it->second) {
      out.class_of_.emplace(o, p);
      auto v = nu_.find(o);
      if (v != nu_.end()) out.nu_.emplace(o, v->second);
      auto name = oid_names_.find(o);
      if (name != oid_names_.end()) out.oid_names_.emplace(o, name->second);
    }
  }
  return out;
}

Status Instance::Absorb(const Instance& src) {
  IQL_CHECK(universe_ == src.universe_)
      << "Absorb requires a shared universe";
  for (Symbol r : src.schema_->relation_names()) {
    if (!schema_->HasRelation(r)) {
      return NotFoundError("relation '" + std::string(universe_->Name(r)) +
                           "' not in target schema");
    }
    RelationExtent& extent = MutableRelation(r);
    for (ValueId v : src.Relation(r)) {
      // `src` iterates in the same order, so the end hint is exact
      // whenever its facts sort after this extent's.
      if (extent.members.insert(v)) {
        extent.ordered.insert(extent.ordered.end(), v);
      }
    }
  }
  for (Symbol p : src.schema_->class_names()) {
    if (!schema_->HasClass(p)) {
      return NotFoundError("class '" + std::string(universe_->Name(p)) +
                           "' not in target schema");
    }
    for (Oid o : src.ClassExtent(p)) {
      auto [it, inserted] = class_of_.emplace(o, p);
      if (!inserted && it->second != p) {
        return FailedPreconditionError(
            "oid @" + std::to_string(o.raw) +
            " already belongs to a different class");
      }
      classes_[p].insert(o);
      auto v = src.nu_.find(o);
      if (v != src.nu_.end()) {
        auto [nit, ninserted] = nu_.emplace(o, v->second);
        if (!ninserted && nit->second != v->second) {
          return FailedPreconditionError(
              "conflicting nu-value for oid @" + std::to_string(o.raw));
        }
      } else if (schema_->IsSetValuedClass(p)) {
        nu_.emplace(o, universe_->values().EmptySet());
      }
      auto name = src.oid_names_.find(o);
      if (name != src.oid_names_.end()) {
        oid_names_.emplace(o, name->second);
      }
    }
  }
  return Status::Ok();
}

bool Instance::EqualGroundFacts(const Instance& other) const {
  IQL_CHECK(universe_ == other.universe_)
      << "ground-fact equality requires a shared universe";
  return EqualIgnoringEmpty(relations_, other.relations_) &&
         EqualIgnoringEmpty(classes_, other.classes_) && nu_ == other.nu_;
}

size_t Instance::GroundFactCount() const {
  size_t n = 0;
  for (const auto& [rel, extent] : relations_) n += extent.ordered.size();
  for (const auto& [cls, oids] : classes_) n += oids.size();
  const ValueStore& values = universe_->values();
  for (const auto& [o, v] : nu_) {
    // A set-valued oid contributes one fact per element (o-hat(v) facts);
    // a non-set oid contributes a single o-hat = v fact.
    auto cls = class_of_.find(o);
    if (cls != class_of_.end() && schema_->IsSetValuedClass(cls->second)) {
      n += values.node(v).elems.size();
    } else {
      n += 1;
    }
  }
  return n;
}

std::string Instance::GroundFactsToString() const {
  const ValueStore& values = universe_->values();
  auto label = [this](Oid o) { return OidLabel(o); };
  std::string out;
  for (Symbol r : schema_->relation_names()) {
    for (ValueId v : Relation(r)) {
      out += std::string(universe_->Name(r)) + "(" +
             values.ToString(v, label) + ").\n";
    }
  }
  for (Symbol p : schema_->class_names()) {
    bool set_valued = schema_->IsSetValuedClass(p);
    for (Oid o : ClassExtent(p)) {
      out += std::string(universe_->Name(p)) + "(" + OidLabel(o) + ").\n";
      auto v = ValueOf(o);
      if (!v.has_value()) continue;
      if (set_valued) {
        for (ValueId e : values.node(*v).elems) {
          out += OidLabel(o) + "^(" + values.ToString(e, label) + ").\n";
        }
      } else {
        out += OidLabel(o) + "^ = " + values.ToString(*v, label) + ".\n";
      }
    }
  }
  return out;
}

std::string Instance::ToString() const {
  const ValueStore& values = universe_->values();
  auto label = [this](Oid o) { return OidLabel(o); };
  std::string out;
  for (Symbol p : schema_->class_names()) {
    out += "pi(" + std::string(universe_->Name(p)) + ") = {";
    bool first = true;
    for (Oid o : ClassExtent(p)) {
      if (!first) out += ", ";
      first = false;
      out += OidLabel(o);
    }
    out += "}\n";
  }
  for (Symbol r : schema_->relation_names()) {
    out += "rho(" + std::string(universe_->Name(r)) + ") = {";
    bool first = true;
    for (ValueId v : Relation(r)) {
      if (!first) out += ", ";
      first = false;
      out += values.ToString(v, label);
    }
    out += "}\n";
  }
  for (Symbol p : schema_->class_names()) {
    for (Oid o : ClassExtent(p)) {
      auto v = ValueOf(o);
      out += "nu(" + OidLabel(o) + ") = ";
      out += v.has_value() ? values.ToString(*v, label) : "undefined";
      out += "\n";
    }
  }
  return out;
}

}  // namespace iqlkit
