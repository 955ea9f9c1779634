#include "src/core/query.h"

#include <algorithm>
#include <unordered_set>

namespace tdx {

namespace {

std::unordered_set<VarId> VarsOf(const Conjunction& conj) {
  std::unordered_set<VarId> vars;
  for (const Atom& atom : conj.atoms) {
    for (const Term& t : atom.terms) {
      if (t.is_var()) vars.insert(t.var());
    }
  }
  return vars;
}

}  // namespace

Status ConjunctiveQuery::Validate() const {
  const std::unordered_set<VarId> body_vars = VarsOf(body);
  for (VarId v : head) {
    if (body_vars.count(v) == 0) {
      return Status::InvalidArgument("query '" + name +
                                     "': head variable missing from body");
    }
  }
  return Status::OK();
}

Status UnionQuery::Validate() const {
  if (disjuncts.empty()) {
    return Status::InvalidArgument("union query '" + name +
                                   "' has no disjuncts");
  }
  const std::size_t arity = disjuncts.front().head.size();
  for (const ConjunctiveQuery& q : disjuncts) {
    TDX_RETURN_IF_ERROR(q.Validate());
    if (q.head.size() != arity) {
      return Status::InvalidArgument("union query '" + name +
                                     "': disjunct arity mismatch");
    }
  }
  return Status::OK();
}

std::string ConjunctiveQuery::ToString(const Schema& schema,
                                       const Universe& u) const {
  auto var_name = [this](VarId v) {
    return (v < body.var_names.size() && !body.var_names[v].empty())
               ? body.var_names[v]
               : ("?" + std::to_string(v));
  };
  std::string out = name.empty() ? "q" : name;
  out += "(";
  for (std::size_t i = 0; i < head.size(); ++i) {
    if (i > 0) out += ", ";
    out += var_name(head[i]);
  }
  out += ") :- ";
  out += body.ToString(schema, u);
  return out;
}

Result<ConjunctiveQuery> LiftQuery(const ConjunctiveQuery& query,
                                   const Schema& schema) {
  ConjunctiveQuery out = query;
  const VarId t_var = static_cast<VarId>(out.body.num_vars);
  for (Atom& atom : out.body.atoms) {
    TDX_ASSIGN_OR_RETURN(RelationId twin, schema.TwinOf(atom.rel));
    if (!schema.relation(twin).temporal) {
      return Status::InvalidArgument(
          "lifting requires the twin of '" + schema.relation(atom.rel).name +
          "' to be temporal");
    }
    atom.rel = twin;
    atom.terms.push_back(Term::Var(t_var));
  }
  out.body.num_vars = t_var + 1;
  out.body.var_names.resize(out.body.num_vars);
  out.body.var_names[t_var] = "t";
  out.head.push_back(t_var);
  out.temporal_var = t_var;
  if (!out.name.empty()) out.name += "+";
  return out;
}

Result<UnionQuery> LiftUnionQuery(const UnionQuery& query,
                                  const Schema& schema) {
  UnionQuery out;
  out.name = query.name.empty() ? "" : (query.name + "+");
  for (const ConjunctiveQuery& q : query.disjuncts) {
    TDX_ASSIGN_OR_RETURN(ConjunctiveQuery lifted, LiftQuery(q, schema));
    out.disjuncts.push_back(std::move(lifted));
  }
  return out;
}

std::vector<Tuple> Evaluate(const ConjunctiveQuery& query,
                            const Instance& instance) {
  std::vector<Tuple> out;
  HomomorphismFinder finder(instance);
  Binding binding(query.body.num_vars);
  HomomorphismFinder::Cursor cursor = finder.Open(query.body, &binding);
  while (cursor.Next()) {
    Tuple tuple;
    tuple.reserve(query.head.size());
    for (VarId v : query.head) tuple.push_back(binding.Get(v));
    out.push_back(std::move(tuple));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Tuple> Evaluate(const UnionQuery& query,
                            const Instance& instance) {
  std::vector<Tuple> out;
  for (const ConjunctiveQuery& q : query.disjuncts) {
    std::vector<Tuple> part = Evaluate(q, instance);
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Tuple> DropTuplesWithNulls(std::vector<Tuple> tuples) {
  tuples.erase(std::remove_if(tuples.begin(), tuples.end(),
                              [](const Tuple& t) {
                                for (const Value& v : t) {
                                  if (v.is_any_null()) return true;
                                }
                                return false;
                              }),
               tuples.end());
  return tuples;
}

void AppendTuple(const Tuple& tuple, const Universe& u, std::string* out) {
  *out += '(';
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) *out += ", ";
    u.AppendRendered(tuple[i], out);
  }
  *out += ')';
}

std::string TupleToString(const Tuple& tuple, const Universe& u) {
  std::string out;
  AppendTuple(tuple, u, &out);
  return out;
}

}  // namespace tdx
