#include "src/relational/universal.h"

namespace tdx {

Conjunction InstanceToConjunction(
    const Instance& instance,
    std::unordered_map<Value, VarId, ValueHash>* null_vars) {
  Conjunction conj;
  instance.ForEach([&](FactView fact) {
    Atom atom;
    atom.rel = fact.relation();
    atom.terms.reserve(fact.arity());
    for (const Value& v : fact.args()) {
      if (v.is_any_null()) {
        auto [it, inserted] = null_vars->emplace(
            v, static_cast<VarId>(null_vars->size()));
        (void)inserted;
        atom.terms.push_back(Term::Var(it->second));
      } else {
        atom.terms.push_back(Term::Val(v));
      }
    }
    conj.atoms.push_back(std::move(atom));
  });
  conj.num_vars = null_vars->size();
  return conj;
}

std::optional<NullAssignment> FindInstanceHomomorphism(const Instance& from,
                                                       const Instance& to) {
  std::unordered_map<Value, VarId, ValueHash> null_vars;
  const Conjunction conj = InstanceToConjunction(from, &null_vars);
  HomomorphismFinder finder(to);
  Binding binding(conj.num_vars);
  HomomorphismFinder::Cursor cursor = finder.Open(conj, &binding);
  if (!cursor.Next()) return std::nullopt;
  NullAssignment assignment;
  for (const auto& [null, var] : null_vars) {
    assignment.emplace(null, binding.Get(var));
  }
  return assignment;
}

bool AreHomomorphicallyEquivalent(const Instance& a, const Instance& b) {
  return FindInstanceHomomorphism(a, b).has_value() &&
         FindInstanceHomomorphism(b, a).has_value();
}

}  // namespace tdx
