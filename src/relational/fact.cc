#include "src/relational/fact.h"

namespace tdx {

namespace {

std::string RenderFact(RelationId rel, const Value* args, std::size_t n,
                       const Schema& schema, const Universe& u) {
  std::string out = schema.relation(rel).name;
  out += "(";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += ", ";
    u.AppendRendered(args[i], &out);
  }
  out += ")";
  return out;
}

}  // namespace

Fact Fact::WithInterval(const Interval& iv) const {
  assert(has_interval());
  std::vector<Value> args = args_;
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i].is_annotated_null()) args[i] = args[i].Reannotated(iv);
  }
  args.back() = Value::OfInterval(iv);
  return Fact(rel_, std::move(args));
}

Fact FactView::WithInterval(const Interval& iv) const {
  assert(has_interval());
  std::vector<Value> args(args_, args_ + arity_);
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i].is_annotated_null()) args[i] = args[i].Reannotated(iv);
  }
  args.back() = Value::OfInterval(iv);
  return Fact(rel_, std::move(args));
}

std::string Fact::ToString(const Schema& schema, const Universe& u) const {
  return RenderFact(rel_, args_.data(), args_.size(), schema, u);
}

std::string FactView::ToString(const Schema& schema, const Universe& u) const {
  return RenderFact(rel_, args_, arity_, schema, u);
}

}  // namespace tdx
