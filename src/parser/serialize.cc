#include "src/parser/serialize.h"

#include <charconv>
#include <cstdio>
#include <limits>
#include <optional>
#include <utility>

namespace tdx {

namespace {

/// Is `name` an auxiliary closure relation (base__op or base__op+)?
/// Returns the base snapshot relation name and operator when so.
std::optional<std::pair<std::string, TemporalOp>> SplitClosureName(
    std::string_view name) {
  if (!name.empty() && name.back() == '+') name.remove_suffix(1);
  const std::size_t sep = name.rfind("__");
  if (sep == std::string_view::npos) return std::nullopt;
  TemporalOp op;
  if (!TemporalOpFromName(name.substr(sep + 2), &op)) return std::nullopt;
  return std::make_pair(std::string(name.substr(0, sep)), op);
}

/// Renders a term in the parseable format: variables by name, constants
/// quoted, anything else is unrepresentable (caller checks).
std::string RenderTerm(const Term& term, const Conjunction& conj,
                       const Universe& u) {
  if (term.is_var()) {
    const VarId v = term.var();
    if (v < conj.var_names.size() && !conj.var_names[v].empty()) {
      return conj.var_names[v];
    }
    return "v" + std::to_string(v);
  }
  assert(term.value().is_constant() &&
         "only constants are representable in dependency atoms");
  return "\"" + std::string(u.symbols().Spelling(term.value().symbol())) +
         "\"";
}

/// Renders a conjunction in the parseable format, translating closure
/// relations back to their operator syntax.
std::string RenderConjunction(const Conjunction& conj, const Schema& schema,
                              const Universe& u) {
  std::string out;
  for (std::size_t i = 0; i < conj.atoms.size(); ++i) {
    if (i > 0) out += " & ";
    const Atom& atom = conj.atoms[i];
    const std::string& rel_name = schema.relation(atom.rel).name;
    const auto closure = SplitClosureName(rel_name);
    if (closure.has_value()) {
      out += std::string(TemporalOpName(closure->second)) + "(" +
             closure->first + "(";
    } else {
      out += rel_name + "(";
    }
    for (std::size_t j = 0; j < atom.terms.size(); ++j) {
      if (j > 0) out += ", ";
      out += RenderTerm(atom.terms[j], conj, u);
    }
    out += ")";
    if (closure.has_value()) out += ")";
  }
  return out;
}

std::string VarName(const Conjunction& conj, VarId v) {
  if (v < conj.var_names.size() && !conj.var_names[v].empty()) {
    return conj.var_names[v];
  }
  return "v" + std::to_string(v);
}

std::string RenderTgd(const Tgd& tgd, std::string_view keyword,
                      const Schema& schema, const Universe& u) {
  std::string out(keyword);
  out += " ";
  if (!tgd.label.empty()) out += tgd.label + ": ";
  out += RenderConjunction(tgd.body, schema, u);
  out += " -> ";
  if (!tgd.existential.empty()) {
    out += "exists ";
    for (std::size_t i = 0; i < tgd.existential.size(); ++i) {
      if (i > 0) out += ", ";
      out += VarName(tgd.head, tgd.existential[i]);
    }
    out += ": ";
  }
  out += RenderConjunction(tgd.head, schema, u);
  out += ";\n";
  return out;
}

}  // namespace

std::string SerializeSchema(const Schema& schema) {
  std::string out;
  for (RelationId rel = 0; rel < schema.relation_count(); ++rel) {
    const RelationSchema& r = schema.relation(rel);
    if (r.temporal) continue;                       // emit the snapshot side
    if (!r.twin.has_value()) continue;              // pairs only
    if (SplitClosureName(r.name).has_value()) continue;  // re-derived
    out += (r.role == SchemaRole::kSource ? "source " : "target ");
    out += r.name + "(";
    for (std::size_t i = 0; i < r.attributes.size(); ++i) {
      if (i > 0) out += ", ";
      out += r.attributes[i];
    }
    out += ");\n";
  }
  return out;
}

std::string SerializeMapping(const Mapping& mapping, const Schema& schema,
                             const Universe& u) {
  std::string out;
  for (const Tgd& tgd : mapping.st_tgds) {
    out += RenderTgd(tgd, "tgd", schema, u);
  }
  for (const Tgd& tgd : mapping.target_tgds) {
    out += RenderTgd(tgd, "ttgd", schema, u);
  }
  for (const Egd& egd : mapping.egds) {
    out += "egd ";
    if (!egd.label.empty()) out += egd.label + ": ";
    out += RenderConjunction(egd.body, schema, u);
    out += " -> " + VarName(egd.body, egd.x1) + " = " +
           VarName(egd.body, egd.x2) + ";\n";
  }
  return out;
}

Result<std::string> SerializeInstanceFacts(const ConcreteInstance& instance,
                                           const Universe& u) {
  std::string out;
  Status status = Status::OK();
  const Schema& schema = instance.schema();
  instance.facts().ForEach([&](FactView fact) {
    if (!status.ok()) return;
    const RelationSchema& rel = schema.relation(fact.relation());
    if (SplitClosureName(rel.name).has_value()) return;  // re-derived
    Result<RelationId> snap = schema.TwinOf(fact.relation());
    if (!snap.ok()) {
      status = snap.status();
      return;
    }
    out += "fact " + schema.relation(*snap).name + "(";
    for (std::size_t i = 0; i + 1 < fact.arity(); ++i) {
      const Value& v = fact.arg(i);
      if (!v.is_constant()) {
        status = Status::InvalidArgument(
            "only complete instances are serializable as facts; found a "
            "null in relation '" + rel.name + "'");
        return;
      }
      if (i > 0) out += ", ";
      out += "\"" + std::string(u.symbols().Spelling(v.symbol())) + "\"";
    }
    out += ") @ " + fact.interval().ToString() + ";\n";
  });
  if (!status.ok()) return status;
  return out;
}

std::string SerializeQueries(const std::vector<UnionQuery>& queries,
                             const Schema& schema, const Universe& u) {
  std::string out;
  for (const UnionQuery& uq : queries) {
    for (const ConjunctiveQuery& q : uq.disjuncts) {
      out += "query " + uq.name + "(";
      for (std::size_t i = 0; i < q.head.size(); ++i) {
        if (i > 0) out += ", ";
        out += VarName(q.body, q.head[i]);
      }
      out += "): " + RenderConjunction(q.body, schema, u) + ";\n";
    }
  }
  return out;
}

Result<std::string> SerializeProgram(const ParsedProgram& program) {
  std::string out = SerializeSchema(program.schema);
  out += SerializeMapping(program.mapping, program.schema, program.universe);
  TDX_ASSIGN_OR_RETURN(std::string facts,
                       SerializeInstanceFacts(program.source,
                                              program.universe));
  out += facts;
  out += SerializeQueries(program.queries, program.schema, program.universe);
  return out;
}

// ---------------------------------------------------------------------------
// Checkpoint encoding
// ---------------------------------------------------------------------------

namespace {

std::string EscapeCheckpointString(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string Hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

std::string IntervalToken(const Interval& iv) {
  return "[" + TimePointToString(iv.start()) + "," +
         TimePointToString(iv.end()) + ")";
}

void AppendValue(std::string* out, const Value& v, const Universe& u) {
  switch (v.kind()) {
    case ValueKind::kConstant:
      *out += "c\"";
      *out += EscapeCheckpointString(u.symbols().Spelling(v.symbol()));
      *out += "\"";
      break;
    case ValueKind::kNull:
      *out += "n" + std::to_string(v.null_id());
      break;
    case ValueKind::kAnnotatedNull:
      *out += "a" + std::to_string(v.null_id()) + IntervalToken(v.interval());
      break;
    case ValueKind::kInterval:
      *out += "i" + IntervalToken(v.interval());
      break;
  }
}

void AppendFactLines(std::string* out, const Instance& instance,
                     const Universe& u) {
  const Schema& schema = instance.schema();
  for (RelationId rel = 0; rel < schema.relation_count(); ++rel) {
    for (const FactView fact : instance.facts(rel)) {
      *out += "fact " + schema.relation(rel).name;
      for (std::size_t i = 0; i < fact.arity(); ++i) {
        *out += " ";
        AppendValue(out, fact.arg(i), u);
      }
      *out += "\n";
    }
  }
}

Status Malformed(const std::string& what) {
  return Status::ParseError("checkpoint: " + what);
}

/// Cursor over one checkpoint line.
struct TokenCursor {
  std::string_view s;

  void SkipSpaces() {
    while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  }
  bool Eat(std::string_view prefix) {
    if (s.substr(0, prefix.size()) != prefix) return false;
    s.remove_prefix(prefix.size());
    return true;
  }
  bool Uint(std::uint64_t* out) {
    SkipSpaces();
    const auto [ptr, ec] =
        std::from_chars(s.data(), s.data() + s.size(), *out, 10);
    if (ec != std::errc() || ptr == s.data()) return false;
    s.remove_prefix(static_cast<std::size_t>(ptr - s.data()));
    return true;
  }
  /// A count of entries that follow on this line, each at least
  /// `entry_bytes` long. A count the rest of the line cannot hold is
  /// refused here, before anything is sized from it.
  bool Count(std::uint64_t* out, std::size_t entry_bytes) {
    return Uint(out) && *out <= s.size() / entry_bytes;
  }
  bool Hex(std::uint64_t* out) {
    SkipSpaces();
    const auto [ptr, ec] =
        std::from_chars(s.data(), s.data() + s.size(), *out, 16);
    if (ec != std::errc() || ptr == s.data()) return false;
    s.remove_prefix(static_cast<std::size_t>(ptr - s.data()));
    return true;
  }
  /// A time point: digits or "inf".
  bool Time(TimePoint* out) {
    SkipSpaces();
    if (Eat("inf")) {
      *out = kTimeInfinity;
      return true;
    }
    std::uint64_t v = 0;
    if (!Uint(&v)) return false;
    *out = v;
    return true;
  }
  /// Next space-delimited word (not quote-aware).
  std::string_view Word() {
    SkipSpaces();
    std::size_t n = 0;
    while (n < s.size() && s[n] != ' ') ++n;
    const std::string_view w = s.substr(0, n);
    s.remove_prefix(n);
    return w;
  }
  /// A quoted, escaped string starting at the cursor.
  bool Quoted(std::string* out) {
    SkipSpaces();
    if (!Eat("\"")) return false;
    out->clear();
    while (!s.empty()) {
      const char c = s.front();
      s.remove_prefix(1);
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (s.empty()) return false;
      const char esc = s.front();
      s.remove_prefix(1);
      switch (esc) {
        case '\\': *out += '\\'; break;
        case '"': *out += '"'; break;
        case 'n': *out += '\n'; break;
        default: return false;
      }
    }
    return false;  // unterminated
  }
  bool AtEnd() {
    SkipSpaces();
    return s.empty();
  }
};

Result<Interval> ParseIntervalToken(TokenCursor* c) {
  TimePoint start = 0;
  TimePoint end = 0;
  if (!c->Eat("[") || !c->Time(&start) || !c->Eat(",") || !c->Time(&end) ||
      !c->Eat(")")) {
    return Malformed("malformed interval");
  }
  return Interval::Make(start, end);
}

Result<Value> ParseValueToken(TokenCursor* c, Universe* universe,
                              NullId null_limit) {
  c->SkipSpaces();
  if (c->s.empty()) return Malformed("missing value");
  const char kind = c->s.front();
  c->s.remove_prefix(1);
  switch (kind) {
    case 'c': {
      std::string spelling;
      if (!c->Quoted(&spelling)) return Malformed("malformed constant");
      return universe->Constant(spelling);
    }
    case 'n': {
      std::uint64_t id = 0;
      if (!c->Uint(&id)) return Malformed("malformed null id");
      if (id >= null_limit) return Malformed("null id out of range");
      return Value::Null(id);
    }
    case 'a': {
      std::uint64_t id = 0;
      if (!c->Uint(&id)) return Malformed("malformed null id");
      if (id >= null_limit) return Malformed("null id out of range");
      TDX_ASSIGN_OR_RETURN(Interval iv, ParseIntervalToken(c));
      return Value::AnnotatedNull(id, iv);
    }
    case 'i': {
      TDX_ASSIGN_OR_RETURN(Interval iv, ParseIntervalToken(c));
      return Value::OfInterval(iv);
    }
    default:
      return Malformed(std::string("unknown value kind '") + kind + "'");
  }
}

/// Sequential reader over the body's lines.
struct LineReader {
  std::string_view body;

  bool done() const { return body.empty(); }
  std::string_view Next() {
    const std::size_t nl = body.find('\n');
    std::string_view line =
        nl == std::string_view::npos ? body : body.substr(0, nl);
    body.remove_prefix(nl == std::string_view::npos ? body.size() : nl + 1);
    return line;
  }
};

Result<Instance> ParseFactBlock(LineReader* reader, std::uint64_t count,
                                const Schema* schema, Universe* universe,
                                NullId null_limit) {
  Instance instance(schema);
  for (std::uint64_t k = 0; k < count; ++k) {
    if (reader->done()) return Malformed("truncated fact block");
    TokenCursor c{reader->Next()};
    if (!c.Eat("fact ")) return Malformed("expected a fact line");
    const std::string_view rel_name = c.Word();
    TDX_ASSIGN_OR_RETURN(RelationId rel, schema->Find(rel_name));
    const std::size_t arity = schema->relation(rel).arity();
    std::vector<Value> args;
    args.reserve(arity);
    while (!c.AtEnd()) {
      TDX_ASSIGN_OR_RETURN(Value v, ParseValueToken(&c, universe, null_limit));
      args.push_back(v);
    }
    if (args.size() != arity) {
      return Malformed("fact arity mismatch for relation '" +
                       std::string(rel_name) + "'");
    }
    instance.Insert(rel, std::move(args));
  }
  return instance;
}

/// A frontier line: `<head> full` or `<head> marks <n> <mark>...`.
Status ParseMarks(std::string_view line, const char* head, bool* full,
                  std::vector<std::uint32_t>* marks) {
  TokenCursor c{line};
  const std::string malformed = std::string("malformed ") + head + " line";
  if (!c.Eat(head) || !c.Eat(" ")) return Malformed(malformed);
  *full = c.Eat("full");
  if (*full) return c.AtEnd() ? Status::OK() : Malformed(malformed);
  std::uint64_t count = 0;
  if (!c.Eat("marks") || !c.Count(&count, 2)) return Malformed(malformed);
  marks->reserve(static_cast<std::size_t>(count));
  for (std::uint64_t k = 0; k < count; ++k) {
    std::uint64_t m = 0;
    if (!c.Uint(&m) || m > std::numeric_limits<std::uint32_t>::max()) {
      return Malformed(malformed);
    }
    marks->push_back(static_cast<std::uint32_t>(m));
  }
  return Status::OK();
}

/// The rest of a row-list line: a count, then that many `rel pos` pairs.
Status ParseRows(TokenCursor* c, std::vector<FactRef>* rows,
                 const char* head) {
  std::uint64_t n = 0;
  if (!c->Count(&n, 4)) return Malformed(std::string("malformed ") + head);
  rows->reserve(static_cast<std::size_t>(n));
  for (std::uint64_t k = 0; k < n; ++k) {
    std::uint64_t rel = 0;
    std::uint64_t pos = 0;
    if (!c->Uint(&rel) || !c->Uint(&pos) ||
        rel > std::numeric_limits<RelationId>::max() ||
        pos > std::numeric_limits<std::uint32_t>::max()) {
      return Malformed(std::string("malformed ") + head);
    }
    rows->push_back(FactRef{static_cast<RelationId>(rel),
                            static_cast<std::uint32_t>(pos)});
  }
  c->SkipSpaces();
  if (!c->s.empty()) return Malformed(std::string("malformed ") + head);
  return Status::OK();
}

/// The rest of an index-warmth line: a count, then that many
/// `rel mask indexed` triples.
Status ParseWarmth(TokenCursor* c, std::vector<IndexWarmth>* warmth,
                   const char* head) {
  std::uint64_t n = 0;
  if (!c->Count(&n, 6)) return Malformed(std::string("malformed ") + head);
  warmth->reserve(static_cast<std::size_t>(n));
  for (std::uint64_t k = 0; k < n; ++k) {
    std::uint64_t rel = 0;
    std::uint64_t mask = 0;
    std::uint64_t indexed = 0;
    if (!c->Uint(&rel) || !c->Uint(&mask) || !c->Uint(&indexed) ||
        rel > std::numeric_limits<RelationId>::max() ||
        indexed > std::numeric_limits<std::uint32_t>::max()) {
      return Malformed(std::string("malformed ") + head);
    }
    warmth->push_back(IndexWarmth{static_cast<RelationId>(rel), mask,
                                  static_cast<std::uint32_t>(indexed)});
  }
  c->SkipSpaces();
  if (!c->s.empty()) return Malformed(std::string("malformed ") + head);
  return Status::OK();
}

}  // namespace

Result<std::string> SerializeCheckpoint(const ChaseCheckpoint& checkpoint,
                                        const Schema& schema,
                                        const Universe& u) {
  (void)schema;
  if (checkpoint.null_names.size() != checkpoint.next_null) {
    return Status::Internal(
        "checkpoint null-name table does not match its null counter");
  }
  if (checkpoint.config.find('\n') != std::string::npos ||
      checkpoint.phase.find('\n') != std::string::npos) {
    return Status::Internal("checkpoint config/phase must be single-line");
  }
  std::string out = "tdxckpt v" +
                    std::to_string(ChaseCheckpoint::kFormatVersion) + "\n";
  out += "fingerprint " + Hex16(checkpoint.program_fingerprint) + "\n";
  out += "config " + checkpoint.config + "\n";
  out += "phase " + checkpoint.phase + "\n";
  out += "rounds " + std::to_string(checkpoint.rounds) + "\n";
  out += "stats " + std::to_string(checkpoint.stats.tgd_triggers) + " " +
         std::to_string(checkpoint.stats.tgd_fires) + " " +
         std::to_string(checkpoint.stats.egd_steps) + " " +
         std::to_string(checkpoint.stats.fresh_nulls) + " " +
         std::to_string(checkpoint.stats.facts_inserted) + " " +
         std::to_string(checkpoint.stats.values_rewritten) + " " +
         std::to_string(checkpoint.stats.skipped_egd_passes) + " " +
         std::to_string(checkpoint.stats.skipped_normalize_passes) + " " +
         std::to_string(checkpoint.stats.search.index_probes) + " " +
         std::to_string(checkpoint.stats.search.index_candidates) + " " +
         std::to_string(checkpoint.stats.search.full_scans) + " " +
         std::to_string(checkpoint.stats.search.rows_indexed) + "\n";
  const auto norm_line = [](const char* head, const NormalizeStats& ns) {
    return std::string(head) + " " + std::to_string(ns.input_facts) + " " +
           std::to_string(ns.output_facts) + " " +
           std::to_string(ns.homomorphisms) + " " +
           std::to_string(ns.groups) + " " +
           std::to_string(ns.delta_facts) + " " +
           std::to_string(ns.dirty_components) + " " +
           std::to_string(ns.reused_components) + " " +
           std::to_string(ns.rows_visited) + " " +
           std::to_string(ns.passes) + " " +
           std::to_string(ns.full_passes) + " " +
           std::to_string(ns.partial ? 1 : 0) + "\n";
  };
  out += norm_line("norm-source", checkpoint.source_norm_stats);
  out += norm_line("norm-target", checkpoint.target_norm_stats);
  out += "consumed " + std::to_string(checkpoint.consumed.elapsed.count()) +
         "\n";
  out += "nulls " + std::to_string(checkpoint.next_null) + "\n";
  for (NullId id = 0; id < checkpoint.next_null; ++id) {
    out += "null " + std::to_string(id) + " \"" +
           EscapeCheckpointString(checkpoint.null_names[id]) + "\"\n";
  }
  const auto marks_line = [&out](const char* head, bool full,
                                 const std::vector<std::uint32_t>& marks) {
    out += std::string(head) + (full ? " full\n" : " marks ");
    if (full) return;
    out += std::to_string(marks.size());
    for (const std::uint32_t m : marks) out += " " + std::to_string(m);
    out += "\n";
  };
  marks_line("frontier", checkpoint.frontier_full, checkpoint.frontier_marks);
  if (!checkpoint.frontier_full) {
    out += "frontier-rows " + std::to_string(checkpoint.frontier_rows.size());
    for (const FactRef& row : checkpoint.frontier_rows) {
      out += " " + std::to_string(row.rel) + " " + std::to_string(row.pos);
    }
    out += "\n";
  }
  marks_line("egd-frontier", checkpoint.egd_frontier_full,
             checkpoint.egd_frontier_marks);
  const auto warmth_line = [&out](const char* head,
                                  const std::vector<IndexWarmth>& warmth) {
    if (warmth.empty()) return;
    out += std::string(head) + " " + std::to_string(warmth.size());
    for (const IndexWarmth& w : warmth) {
      out += " " + std::to_string(w.rel) + " " + std::to_string(w.mask) +
             " " + std::to_string(w.indexed);
    }
    out += "\n";
  };
  warmth_line("warmth-round", checkpoint.round_warmth);
  warmth_line("warmth-norm", checkpoint.norm_warmth);
  if (checkpoint.norm_state_valid) {
    out += "norm-state " + std::to_string(checkpoint.norm_components) + "\n";
    out += "norm-marks " + std::to_string(checkpoint.norm_marks.size());
    for (const std::uint32_t m : checkpoint.norm_marks) {
      out += " " + std::to_string(m);
    }
    out += "\nnorm-labels " + std::to_string(checkpoint.norm_labels.size());
    for (const std::uint32_t l : checkpoint.norm_labels) {
      out += " " + std::to_string(l);
    }
    out += "\nnorm-dirty " + std::to_string(checkpoint.norm_dirty.size());
    for (const FactRef& row : checkpoint.norm_dirty) {
      out += " " + std::to_string(row.rel) + " " + std::to_string(row.pos);
    }
    out += "\n";
  }
  if (checkpoint.target.has_value()) {
    out += "instance target " + std::to_string(checkpoint.target->size()) +
           "\n";
    AppendFactLines(&out, *checkpoint.target, u);
  }
  if (checkpoint.normalized_source.has_value()) {
    out += "instance normalized-source " +
           std::to_string(checkpoint.normalized_source->size()) + "\n";
    AppendFactLines(&out, *checkpoint.normalized_source, u);
  }
  out += "end " + Hex16(FingerprintText(out)) + "\n";
  return out;
}

Result<ChaseCheckpoint> ParseCheckpoint(std::string_view text,
                                        const Schema* schema,
                                        Universe* universe) {
  // Verify the trailing checksum over everything before the "end" line.
  const std::size_t end_pos = text.rfind("\nend ");
  if (end_pos == std::string_view::npos) {
    return Malformed("missing end line (truncated file?)");
  }
  const std::string_view body = text.substr(0, end_pos + 1);
  TokenCursor end_cursor{text.substr(end_pos + 1)};
  std::uint64_t checksum = 0;
  if (!end_cursor.Eat("end ") || !end_cursor.Hex(&checksum)) {
    return Malformed("malformed end line");
  }
  if (checksum != FingerprintText(body)) {
    return Malformed("checksum mismatch (corrupt or torn file)");
  }

  LineReader reader{body};
  ChaseCheckpoint ck;

  TokenCursor c{reader.Next()};
  std::uint64_t version = 0;
  if (!c.Eat("tdxckpt v") || !c.Uint(&version)) {
    return Malformed("missing tdxckpt header");
  }
  if (version != ChaseCheckpoint::kFormatVersion) {
    return Malformed("unsupported format version v" +
                     std::to_string(version));
  }
  c = TokenCursor{reader.Next()};
  if (!c.Eat("fingerprint ") || !c.Hex(&ck.program_fingerprint)) {
    return Malformed("malformed fingerprint line");
  }
  c = TokenCursor{reader.Next()};
  if (!c.Eat("config ")) return Malformed("malformed config line");
  ck.config = std::string(c.s);
  c = TokenCursor{reader.Next()};
  if (!c.Eat("phase ")) return Malformed("malformed phase line");
  ck.phase = std::string(c.Word());
  std::uint64_t n = 0;
  c = TokenCursor{reader.Next()};
  if (!c.Eat("rounds ") || !c.Uint(&n)) return Malformed("malformed rounds");
  ck.rounds = static_cast<std::size_t>(n);
  // A counter line: its head, then exactly `count` unsigned fields.
  const auto parse_counts = [&reader](const char* head, std::uint64_t* v,
                                      std::size_t count) -> Status {
    TokenCursor line{reader.Next()};
    bool ok = line.Eat(head) && line.Eat(" ");
    for (std::size_t i = 0; ok && i < count; ++i) ok = line.Uint(&v[i]);
    line.SkipSpaces();
    if (!ok || !line.s.empty()) {
      return Malformed(std::string("malformed ") + head + " line");
    }
    return Status::OK();
  };
  {
    std::uint64_t v[12];
    TDX_RETURN_IF_ERROR(parse_counts("stats", v, 12));
    ck.stats.tgd_triggers = static_cast<std::size_t>(v[0]);
    ck.stats.tgd_fires = static_cast<std::size_t>(v[1]);
    ck.stats.egd_steps = static_cast<std::size_t>(v[2]);
    ck.stats.fresh_nulls = static_cast<std::size_t>(v[3]);
    ck.stats.facts_inserted = static_cast<std::size_t>(v[4]);
    ck.stats.values_rewritten = static_cast<std::size_t>(v[5]);
    ck.stats.skipped_egd_passes = static_cast<std::size_t>(v[6]);
    ck.stats.skipped_normalize_passes = static_cast<std::size_t>(v[7]);
    ck.stats.search.index_probes = v[8];
    ck.stats.search.index_candidates = v[9];
    ck.stats.search.full_scans = v[10];
    ck.stats.search.rows_indexed = v[11];
  }
  const auto parse_norm = [&](const char* head, NormalizeStats* ns) -> Status {
    std::uint64_t v[11];
    TDX_RETURN_IF_ERROR(parse_counts(head, v, 11));
    if (v[10] > 1) return Malformed(std::string("malformed ") + head + " line");
    ns->input_facts = static_cast<std::size_t>(v[0]);
    ns->output_facts = static_cast<std::size_t>(v[1]);
    ns->homomorphisms = static_cast<std::size_t>(v[2]);
    ns->groups = static_cast<std::size_t>(v[3]);
    ns->delta_facts = static_cast<std::size_t>(v[4]);
    ns->dirty_components = static_cast<std::size_t>(v[5]);
    ns->reused_components = static_cast<std::size_t>(v[6]);
    ns->rows_visited = static_cast<std::size_t>(v[7]);
    ns->passes = static_cast<std::size_t>(v[8]);
    ns->full_passes = static_cast<std::size_t>(v[9]);
    ns->partial = v[10] != 0;
    return Status::OK();
  };
  TDX_RETURN_IF_ERROR(parse_norm("norm-source", &ck.source_norm_stats));
  TDX_RETURN_IF_ERROR(parse_norm("norm-target", &ck.target_norm_stats));
  {
    std::uint64_t elapsed = 0;
    TDX_RETURN_IF_ERROR(parse_counts("consumed", &elapsed, 1));
    if (elapsed > static_cast<std::uint64_t>(
                      std::chrono::milliseconds::max().count())) {
      return Malformed("consumed elapsed time out of range");
    }
    ck.consumed.elapsed =
        std::chrono::milliseconds(static_cast<std::int64_t>(elapsed));
  }
  // The null table follows on lines of at least `null N ""\n`.
  constexpr std::size_t kMinNullLine = 10;
  c = TokenCursor{reader.Next()};
  if (!c.Eat("nulls ") || !c.Uint(&n) ||
      n > reader.body.size() / kMinNullLine) {
    return Malformed("malformed nulls");
  }
  ck.next_null = n;
  ck.null_names.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t id = 0; id < n; ++id) {
    if (reader.done()) return Malformed("truncated null table");
    c = TokenCursor{reader.Next()};
    std::uint64_t got = 0;
    std::string name;
    if (!c.Eat("null ") || !c.Uint(&got) || got != id || !c.Quoted(&name)) {
      return Malformed("malformed null line");
    }
    ck.null_names.push_back(std::move(name));
  }
  TDX_RETURN_IF_ERROR(ParseMarks(reader.Next(), "frontier", &ck.frontier_full,
                                 &ck.frontier_marks));
  if (!ck.frontier_full) {
    c = TokenCursor{reader.Next()};
    if (!c.Eat("frontier-rows ")) return Malformed("malformed frontier-rows");
    TDX_RETURN_IF_ERROR(ParseRows(&c, &ck.frontier_rows, "frontier-rows"));
  }
  TDX_RETURN_IF_ERROR(ParseMarks(reader.Next(), "egd-frontier",
                                 &ck.egd_frontier_full,
                                 &ck.egd_frontier_marks));

  while (!reader.done()) {
    c = TokenCursor{reader.Next()};
    if (c.AtEnd()) continue;
    if (c.Eat("instance target ")) {
      if (!c.Uint(&n)) return Malformed("malformed instance header");
      TDX_ASSIGN_OR_RETURN(
          Instance inst,
          ParseFactBlock(&reader, n, schema, universe, ck.next_null));
      ck.target = std::move(inst);
    } else if (c.Eat("instance normalized-source ")) {
      if (!c.Uint(&n)) return Malformed("malformed instance header");
      TDX_ASSIGN_OR_RETURN(
          Instance inst,
          ParseFactBlock(&reader, n, schema, universe, ck.next_null));
      ck.normalized_source = std::move(inst);
    } else if (c.Eat("norm-state ")) {
      if (!c.Uint(&n) || n > std::numeric_limits<std::uint32_t>::max()) {
        return Malformed("malformed norm-state line");
      }
      ck.norm_state_valid = true;
      ck.norm_components = static_cast<std::uint32_t>(n);
    } else if (c.Eat("norm-marks ")) {
      if (!c.Count(&n, 2)) return Malformed("malformed norm-marks line");
      ck.norm_marks.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t k = 0; k < n; ++k) {
        std::uint64_t m = 0;
        if (!c.Uint(&m) || m > std::numeric_limits<std::uint32_t>::max()) {
          return Malformed("malformed norm-marks line");
        }
        ck.norm_marks.push_back(static_cast<std::uint32_t>(m));
      }
    } else if (c.Eat("norm-labels ")) {
      if (!c.Count(&n, 2)) return Malformed("malformed norm-labels line");
      ck.norm_labels.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t k = 0; k < n; ++k) {
        std::uint64_t l = 0;
        if (!c.Uint(&l) || l > std::numeric_limits<std::uint32_t>::max()) {
          return Malformed("malformed norm-labels line");
        }
        ck.norm_labels.push_back(static_cast<std::uint32_t>(l));
      }
    } else if (c.Eat("norm-dirty ")) {
      TDX_RETURN_IF_ERROR(ParseRows(&c, &ck.norm_dirty, "norm-dirty"));
    } else if (c.Eat("warmth-round ")) {
      TDX_RETURN_IF_ERROR(ParseWarmth(&c, &ck.round_warmth, "warmth-round"));
    } else if (c.Eat("warmth-norm ")) {
      TDX_RETURN_IF_ERROR(ParseWarmth(&c, &ck.norm_warmth, "warmth-norm"));
    } else {
      return Malformed("unexpected line in checkpoint body");
    }
  }
  // A dirty row names a row of the previous normalized output, so it must
  // lie below its relation's mark; anything else is a torn watermark.
  for (const FactRef& row : ck.norm_dirty) {
    if (row.rel >= ck.norm_marks.size() || row.pos >= ck.norm_marks[row.rel]) {
      return Status::InvalidArgument(
          "checkpoint norm-dirty row lies beyond its relation's norm mark");
    }
  }
  // Frontier rows and index warmth name rows of the target: each must lie
  // inside it, rows strictly ascending, warmth masks within the relation's
  // arity and each (relation, mask) once.
  const auto target_size = [&](RelationId rel) -> std::size_t {
    return ck.target.has_value() && rel < schema->relation_count()
               ? ck.target->facts(rel).size()
               : 0;
  };
  for (std::size_t k = 0; k < ck.frontier_rows.size(); ++k) {
    const FactRef& row = ck.frontier_rows[k];
    if (row.pos >= target_size(row.rel)) {
      return Status::InvalidArgument(
          "checkpoint frontier row lies beyond its relation's size");
    }
    if (k > 0 && ck.frontier_rows[k - 1] >= row) {
      return Status::InvalidArgument(
          "checkpoint frontier rows are not strictly ascending");
    }
  }
  for (const std::vector<IndexWarmth>* warmth :
       {&ck.round_warmth, &ck.norm_warmth}) {
    for (std::size_t k = 0; k < warmth->size(); ++k) {
      const IndexWarmth& w = (*warmth)[k];
      const bool in_schema = w.rel < schema->relation_count();
      const std::size_t arity =
          in_schema ? schema->relation(w.rel).arity() : 0;
      if (!in_schema || w.mask == 0 ||
          (arity < 64 && (w.mask >> arity) != 0) ||
          w.indexed > target_size(w.rel)) {
        return Status::InvalidArgument(
            "checkpoint index warmth names no index of the target");
      }
      if (k > 0 && (*warmth)[k - 1] >= w) {
        return Status::InvalidArgument(
            "checkpoint index warmth is not strictly ascending");
      }
    }
  }
  return ck;
}

}  // namespace tdx
