#include "src/parser/printer.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace tdx {

namespace {

std::string Pad(const std::string& text, std::size_t width) {
  std::string out = text;
  out.resize(std::max(width, text.size()), ' ');
  return out;
}

}  // namespace

std::string RenderRelationTable(const Instance& instance, RelationId rel,
                                const Universe& u) {
  std::vector<Fact> facts = instance.CopyFacts(rel);
  if (facts.empty()) return "";
  std::sort(facts.begin(), facts.end());
  const RelationSchema& schema = instance.schema().relation(rel);

  // Compute column widths over header and all cells.
  std::vector<std::size_t> widths(schema.arity());
  for (std::size_t c = 0; c < schema.arity(); ++c) {
    widths[c] = schema.attributes[c].size();
  }
  std::vector<std::vector<std::string>> rows;
  rows.reserve(facts.size());
  for (const Fact& fact : facts) {
    std::vector<std::string> row;
    row.reserve(fact.arity());
    for (std::size_t c = 0; c < fact.arity(); ++c) {
      row.push_back(u.Render(fact.arg(c)));
      widths[c] = std::max(widths[c], row.back().size());
    }
    rows.push_back(std::move(row));
  }

  std::string out = schema.name + "\n";
  std::string header = "  ";
  for (std::size_t c = 0; c < schema.arity(); ++c) {
    header += Pad(schema.attributes[c], widths[c]) + "  ";
  }
  while (!header.empty() && header.back() == ' ') header.pop_back();
  out += header + "\n";
  for (const std::vector<std::string>& row : rows) {
    std::string line = "  ";
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += Pad(row[c], widths[c]) + "  ";
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    out += line + "\n";
  }
  return out;
}

std::string RenderInstanceTables(const Instance& instance, const Universe& u) {
  std::string out;
  for (RelationId rel = 0; rel < instance.schema().relation_count(); ++rel) {
    const std::string table = RenderRelationTable(instance, rel, u);
    if (table.empty()) continue;
    if (!out.empty()) out += "\n";
    out += table;
  }
  return out;
}

std::string RenderConcreteInstance(const ConcreteInstance& instance,
                                   const Universe& u) {
  return RenderInstanceTables(instance.facts(), u);
}

std::string RenderAbstractInstance(const AbstractInstance& instance,
                                   const Universe& u) {
  std::string out;
  for (const AbstractPiece& piece : instance.pieces()) {
    out += piece.span.ToString() + ":\n";
    std::vector<Fact> facts;
    piece.snapshot.ForEach([&](FactView f) { facts.push_back(f.ToFact()); });
    std::sort(facts.begin(), facts.end());
    if (facts.empty()) out += "  (empty)\n";
    for (const Fact& f : facts) {
      out += "  " + f.ToString(instance.schema(), u) + "\n";
    }
  }
  return out;
}

std::string RenderRelationCsv(const Instance& instance, RelationId rel,
                              const Universe& u) {
  const RelationSchema& schema = instance.schema().relation(rel);
  auto quote = [](const std::string& field) {
    std::string out = "\"";
    for (char c : field) {
      if (c == '"') out += '"';
      out += c;
    }
    out += '"';
    return out;
  };
  std::string out;
  for (std::size_t c = 0; c < schema.arity(); ++c) {
    if (c > 0) out += ",";
    out += quote(schema.attributes[c]);
  }
  out += "\n";
  std::vector<Fact> facts = instance.CopyFacts(rel);
  std::sort(facts.begin(), facts.end());
  for (const Fact& fact : facts) {
    for (std::size_t c = 0; c < fact.arity(); ++c) {
      if (c > 0) out += ",";
      out += quote(u.Render(fact.arg(c)));
    }
    out += "\n";
  }
  return out;
}

std::string RenderAnswers(const std::vector<Tuple>& answers,
                          const Universe& u) {
  std::vector<Tuple> sorted = answers;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const Tuple& tuple : sorted) {
    out += TupleToString(tuple, u) + "\n";
  }
  return out;
}

std::string RenderChaseStats(const CChaseOutcome& outcome) {
  std::ostringstream out;
  const auto line = [&out](const char* head, const auto& record) {
    out << "(" << head << ":";
    record.ForEachCounter(
        [&out](const CounterSpec& spec, const auto& value) {
          out << " " << spec.label << "=" << value;
        },
        record);
    out << ")\n";
  };
  line("stats", outcome.stats);
  line("norm-source", outcome.source_norm_stats);
  line("norm-target", outcome.target_norm_stats);
  return out.str();
}

}  // namespace tdx
