#include "src/parser/printer.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

namespace tdx {

namespace {

/// Half of a row's sort key: a value's kind in the top two bits, then its
/// constant or null id saturated to 30 bits (interval values carry id 0).
/// Halves order values as Value's operator< does wherever they differ.
/// *exact tells whether the half pins the value down: a constant or a
/// labeled null whose id did not saturate.
std::uint32_t KeyHalf(const Value& v, bool* exact) {
  constexpr std::uint64_t kMaxId = (std::uint64_t{1} << 30) - 1;
  std::uint64_t id = 0;
  if (v.is_constant()) id = v.symbol();
  if (v.is_any_null()) id = v.null_id();
  *exact = (v.is_constant() || v.is_null()) && id < kMaxId;
  return (static_cast<std::uint32_t>(v.kind()) << 30) |
         static_cast<std::uint32_t>(std::min(id, kMaxId));
}

/// A row's sort key: the first argument's half, then, when that half pins
/// the first argument down, the second argument's. Rows whose keys differ
/// compare as their Fact copies do; equal keys decide nothing.
std::uint64_t RowKey(FactView row) {
  if (row.arity() == 0) return 0;
  bool exact = false;
  const std::uint64_t high = KeyHalf(row.arg(0), &exact);
  if (!exact || row.arity() == 1) return high << 32;
  return (high << 32) | KeyHalf(row.arg(1), &exact);
}

/// Positions of a relation's facts in the order of sorted Fact copies:
/// by arguments, lexicographically. The packed row keys decide most
/// comparisons without touching the arena.
std::vector<std::uint32_t> SortedPositions(const FactColumn& column) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;
  keyed.reserve(column.size());
  for (std::uint32_t pos = 0; pos < column.size(); ++pos) {
    keyed.emplace_back(RowKey(column[pos]), pos);
  }
  std::sort(keyed.begin(), keyed.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    const ValueSpan x = column[a.second].args();
    const ValueSpan y = column[b.second].args();
    return std::lexicographical_compare(x.begin(), x.end(), y.begin(),
                                        y.end());
  });
  std::vector<std::uint32_t> order;
  order.reserve(keyed.size());
  for (const auto& [key, pos] : keyed) order.push_back(pos);
  return order;
}

/// Writes one table line at `p` and returns its end: two spaces, each cell
/// padded to its column's width plus two spaces, the line's trailing
/// spaces trimmed, then a newline. Needs LineBound(widths) bytes at `p`.
/// cell_at(c) is called once per column, in column order.
template <typename CellAt>
char* WriteLine(const std::vector<std::size_t>& widths, CellAt cell_at,
                char* p) {
  char* const start = p;
  *p++ = ' ';
  *p++ = ' ';
  for (std::size_t c = 0; c < widths.size(); ++c) {
    const std::string_view cell = cell_at(c);
    std::memcpy(p, cell.data(), cell.size());
    p += cell.size();
    const std::size_t pad = widths[c] - cell.size() + 2;
    std::memset(p, ' ', pad);
    p += pad;
  }
  while (p > start && p[-1] == ' ') --p;
  *p++ = '\n';
  return p;
}

std::size_t LineBound(const std::vector<std::size_t>& widths) {
  std::size_t bound = 3;
  for (const std::size_t w : widths) bound += w + 2;
  return bound;
}

/// Appends RenderRelationTable(instance, rel, u) to *out.
void AppendRelationTable(const Instance& instance, RelationId rel,
                         const Universe& u, std::string* out) {
  const FactColumn column = instance.facts(rel);
  if (column.empty()) return;
  const RelationSchema& schema = instance.schema().relation(rel);
  const std::size_t arity = schema.arity();

  // Every cell rendered once, in sorted row order, into one buffer;
  // ends[i] is where cell i stops. Column widths span header and cells.
  std::vector<std::size_t> widths(arity);
  for (std::size_t c = 0; c < arity; ++c) {
    widths[c] = schema.attributes[c].size();
  }
  std::string cells;
  std::vector<std::size_t> ends;
  ends.reserve(column.size() * arity);
  for (const std::uint32_t pos : SortedPositions(column)) {
    const FactView fact = column[pos];
    for (std::size_t c = 0; c < arity; ++c) {
      const std::size_t begin = cells.size();
      u.AppendRendered(fact.arg(c), &cells);
      ends.push_back(cells.size());
      widths[c] = std::max(widths[c], cells.size() - begin);
    }
  }

  // The lines go straight into *out: sized for the longest possible
  // lines, written in place, then cut to what was written.
  const std::size_t old_size = out->size();
  out->resize(old_size + schema.name.size() + 1 +
              (column.size() + 1) * LineBound(widths));
  char* p = out->data() + old_size;
  std::memcpy(p, schema.name.data(), schema.name.size());
  p += schema.name.size();
  *p++ = '\n';
  p = WriteLine(
      widths,
      [&](std::size_t c) { return std::string_view(schema.attributes[c]); },
      p);
  // WriteLine asks for the cells of a line in order, so the cells are
  // read back in the order they were rendered.
  const std::string_view all(cells);
  std::size_t next = 0;
  std::size_t begin = 0;
  const auto next_cell = [&](std::size_t) {
    const std::size_t cell_begin = begin;
    begin = ends[next++];
    return all.substr(cell_begin, begin - cell_begin);
  };
  for (std::size_t row = 0; row < column.size(); ++row) {
    p = WriteLine(widths, next_cell, p);
  }
  out->resize(p - out->data());
}

}  // namespace

std::string RenderRelationTable(const Instance& instance, RelationId rel,
                                const Universe& u) {
  std::string out;
  AppendRelationTable(instance, rel, u, &out);
  return out;
}

std::string RenderInstanceTables(const Instance& instance, const Universe& u) {
  std::string out;
  for (RelationId rel = 0; rel < instance.schema().relation_count(); ++rel) {
    if (instance.facts(rel).empty()) continue;
    if (!out.empty()) out += "\n";
    AppendRelationTable(instance, rel, u, &out);
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
  std::string out;
  auto quote = [&out](std::string_view field) {
    out += '"';
    for (char c : field) {
      if (c == '"') out += '"';
      out += c;
    }
    out += '"';
  };
  for (std::size_t c = 0; c < schema.arity(); ++c) {
    if (c > 0) out += ",";
    quote(schema.attributes[c]);
  }
  out += "\n";
  const FactColumn column = instance.facts(rel);
  std::string cell;
  for (const std::uint32_t pos : SortedPositions(column)) {
    const FactView fact = column[pos];
    for (std::size_t c = 0; c < fact.arity(); ++c) {
      if (c > 0) out += ",";
      cell.clear();
      u.AppendRendered(fact.arg(c), &cell);
      quote(cell);
    }
    out += "\n";
  }
  return out;
}

std::string RenderAnswers(const std::vector<Tuple>& answers,
                          const Universe& u) {
  // Evaluation already returns its answers sorted; then the order is the
  // identity and the check is all the sorting there is.
  std::vector<std::size_t> order(answers.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (!std::is_sorted(answers.begin(), answers.end())) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return answers[a] < answers[b];
    });
  }
  std::string out;
  for (const std::size_t i : order) {
    AppendTuple(answers[i], u, &out);
    out += '\n';
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
