#include "src/core/solution_core.h"

#include <unordered_map>

#include "src/relational/universal.h"

namespace tdx {

namespace {

/// Applies the endomorphism witnessed by (null_vars, binding) to the
/// instance, producing its image.
Instance ApplyEndomorphism(
    const Instance& instance,
    const std::unordered_map<Value, VarId, ValueHash>& null_vars,
    const Binding& binding) {
  Instance image(&instance.schema());
  instance.ForEach([&](FactView fact) {
    std::vector<Value> args;
    args.reserve(fact.arity());
    for (const Value& v : fact.args()) {
      auto it = null_vars.find(v);
      args.push_back(it == null_vars.end() ? v : binding.Get(it->second));
    }
    image.Insert(Fact(fact.relation(), std::move(args)));
  });
  return image;
}

/// Finds a proper endomorphism (image smaller than the instance itself) and
/// returns its image, or nullopt when the instance is a core.
std::optional<Instance> ProperEndomorphismImage(const Instance& instance) {
  std::unordered_map<Value, VarId, ValueHash> null_vars;
  const Conjunction conj = InstanceToConjunction(instance, &null_vars);
  if (null_vars.empty()) return std::nullopt;  // no nulls: already a core

  HomomorphismFinder finder(instance);
  Binding binding(conj.num_vars);
  HomomorphismFinder::Cursor cursor = finder.Open(conj, &binding);
  while (cursor.Next()) {
    Instance candidate = ApplyEndomorphism(instance, null_vars, binding);
    // A proper retraction: its image is smaller than the instance.
    if (candidate.size() < instance.size()) return candidate;
  }
  return std::nullopt;
}

}  // namespace

Instance ComputeCore(const Instance& instance, CoreStats* stats) {
  Instance current = instance;
  std::size_t rounds = 0;
  while (true) {
    std::optional<Instance> image = ProperEndomorphismImage(current);
    if (!image.has_value()) break;
    current = std::move(*image);
    ++rounds;
  }
  if (stats != nullptr) {
    stats->rounds = rounds;
    stats->facts_removed = instance.size() - current.size();
  }
  return current;
}

ConcreteInstance ComputeConcreteCore(const ConcreteInstance& instance,
                                     CoreStats* stats) {
  return ConcreteInstance(ComputeCore(instance.facts(), stats));
}

bool IsCore(const Instance& instance) {
  return !ProperEndomorphismImage(instance).has_value();
}

}  // namespace tdx
