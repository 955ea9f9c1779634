#include "src/parser/parser.h"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "src/analysis/termination.h"
#include "src/parser/lexer.h"

namespace tdx {

namespace {

/// Recursive-descent parser pulling tokens from a Lexer through a
/// two-token window.
class Parser {
 public:
  Parser(std::string_view text, const ParseLimits& limits,
         ParsedProgram* program)
      : lexer_(text, limits), limits_(limits), program_(program) {
    Pull(&cur_);
  }

  Status Run() {
    while (!AtEnd()) {
      TDX_FAULT_POINT("parser/statement");
      TDX_RETURN_IF_ERROR(ParseStatement());
    }
    // The whole-program checks name the offending statement's position in
    // their messages; like every other rejection they are parse errors.
    Status status = Finish();
    if (status.ok() || status.code() == StatusCode::kParseError) return status;
    return Status::ParseError(status.message());
  }

 private:
  Status Finish() {
    // Materialize temporal-operator closures now that all facts are known.
    for (const ParsedProgram::ClosureSpec& spec : program_->closures) {
      TDX_RETURN_IF_ERROR(MaterializeClosure(program_->source,
                                             spec.base_concrete, spec.op,
                                             spec.closure_concrete,
                                             &program_->source));
    }
    // Finalize the mapping and derive the lifted version. Validation also
    // attaches the termination certificate that engines consult later; the
    // lifted mapping is certified separately (lifting preserves weak
    // acyclicity, but deriving the certificate from M+ itself keeps the
    // guarantee self-contained).
    TDX_RETURN_IF_ERROR(
        ValidateAndCertifyMapping(&program_->mapping, program_->schema));
    TDX_ASSIGN_OR_RETURN(program_->lifted,
                         LiftMapping(program_->mapping, program_->schema));
    program_->lifted.certificate =
        CertifyTermination(program_->lifted.target_tgds, program_->schema);
    for (const UnionQuery& q : program_->queries) {
      TDX_RETURN_IF_ERROR(q.Validate());
    }
    return Status::OK();
  }

  // ---- token helpers ------------------------------------------------------
  // A token the lexer failed on reads as kEnd at the failing position; its
  // error is reported only once the parser reaches it (ErrorHere), so an
  // earlier parse error wins and the first error in input order is the one
  // returned. Nothing is pulled past it, so it is the last token pulled.
  // Lexer failures are sticky, so the lexer's status is the last pull's.
  void Pull(Token* token) { lexer_.Read(token); }
  bool CurrentFailed() const { return !lexer_.status().ok() && !has_next_; }
  /// Peek(0) is the current token; Peek(1), pulled on demand, the one after.
  const Token& Peek(std::size_t ahead = 0) {
    if (ahead == 0 || CurrentFailed()) return cur_;
    if (!has_next_) {
      Pull(&next_);
      has_next_ = true;
    }
    return next_;
  }
  bool AtEnd() const {
    return cur_.kind == TokenKind::kEnd && !CurrentFailed();
  }
  /// Consumes the current token and returns it (by value: the window slot
  /// is refilled).
  Token Advance() {
    const Token consumed = cur_;
    if (has_next_) {
      cur_ = next_;
      has_next_ = false;
    } else if (!CurrentFailed()) {
      Pull(&cur_);
    }
    return consumed;
  }
  bool Check(TokenKind kind) const { return cur_.kind == kind; }
  bool Match(TokenKind kind) {
    if (!Check(kind)) return false;
    Advance();
    return true;
  }
  /// Position of the next token; statements record the span of their
  /// introducing keyword.
  SourceSpan SpanHere() const { return SourceSpan{cur_.line, cur_.column}; }
  Status ErrorHere(const std::string& what) const {
    if (CurrentFailed()) return lexer_.status();
    const std::string text(cur_.text);
    return Status::ParseError(what + " at line " + std::to_string(cur_.line) +
                              ", column " + std::to_string(cur_.column) +
                              " (got " + std::string(TokenKindName(cur_.kind)) +
                              (text.empty() ? "" : " '" + text + "'") + ")");
  }
  /// Consumes a token of `kind`; the message is built only on failure.
  Status Expect(TokenKind kind, const char* context) {
    if (Match(kind)) return Status::OK();
    return ErrorHere("expected " + std::string(TokenKindName(kind)) + " " +
                     context);
  }

  // ---- grammar ------------------------------------------------------------
  Status ParseStatement() {
    if (!Check(TokenKind::kIdentifier)) {
      return ErrorHere("expected a statement keyword");
    }
    statement_span_ = SpanHere();
    const std::string_view keyword = cur_.text;
    if (keyword == "fact") return ParseFact();  // most statements are facts
    if (keyword == "source" || keyword == "target") {
      return ParseRelationDecl(keyword == "source" ? SchemaRole::kSource
                                                   : SchemaRole::kTarget);
    }
    if (keyword == "tgd") return ParseTgd(/*target=*/false);
    if (keyword == "ttgd") return ParseTgd(/*target=*/true);
    if (keyword == "egd") return ParseEgd();
    if (keyword == "query") return ParseQuery();
    return ErrorHere("unknown statement keyword '" + std::string(keyword) +
                     "'");
  }

  Status ParseRelationDecl(SchemaRole role) {
    Advance();  // keyword
    if (!Check(TokenKind::kIdentifier)) {
      return ErrorHere("expected relation name");
    }
    const std::string_view name = Advance().text;
    TDX_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after relation name"));
    std::vector<std::string> attrs;
    do {
      if (!Check(TokenKind::kIdentifier)) {
        return ErrorHere("expected attribute name");
      }
      attrs.emplace_back(Advance().text);
    } while (Match(TokenKind::kComma));
    TDX_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "after attribute list"));
    TDX_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "after declaration"));
    TDX_RETURN_IF_ERROR(WithSpan(
        program_->schema.AddRelationPair(name, std::move(attrs), role)
            .status(),
        statement_span_));
    SyncRelationSpans();
    return Status::OK();
  }

  /// Stamps every relation registered since the last call with the current
  /// statement's span (AddRelationPair registers two; closure resolution
  /// can register more mid-statement).
  void SyncRelationSpans() {
    program_->relation_spans.resize(program_->schema.relation_count(),
                                    statement_span_);
  }

  /// Variable table scoped to one dependency or query.
  struct VarScope {
    std::unordered_map<std::string, VarId> ids;
    std::vector<std::string> names;

    VarId Get(std::string_view name) {
      std::string key(name);
      auto it = ids.find(key);
      if (it != ids.end()) return it->second;
      const VarId v = static_cast<VarId>(names.size());
      names.push_back(key);
      ids.emplace(std::move(key), v);
      return v;
    }
    VarId Fresh() {
      const VarId v = static_cast<VarId>(names.size());
      names.push_back("_" + std::to_string(v));
      return v;
    }
  };

  Result<Term> ParseTerm(VarScope* scope) {
    if (Check(TokenKind::kString)) {
      return Term::Val(program_->universe.Constant(Advance().text));
    }
    if (Check(TokenKind::kNumber)) {
      return Term::Val(program_->universe.Constant(Advance().text));
    }
    if (Check(TokenKind::kIdentifier)) {
      const std::string_view name = Advance().text;
      if (name == "_") return Term::Var(scope->Fresh());
      return Term::Var(scope->Get(name));
    }
    return ErrorHere("expected a term (variable, string, or number)");
  }

  Result<Atom> ParseAtom(VarScope* scope, bool allow_temporal_ops = false) {
    if (!Check(TokenKind::kIdentifier)) {
      return ErrorHere("expected relation name in atom");
    }
    const Token name_token = Advance();
    const std::string_view name = name_token.text;

    // Temporal operator applied to an atom: op(R(...)).
    TemporalOp op;
    if (TemporalOpFromName(name, &op)) {
      if (!allow_temporal_ops) {
        return Status::ParseError(
            "temporal operator '" + std::string(name) +
            "' is only allowed in tgd bodies (line " +
            std::to_string(name_token.line) + ")");
      }
      // The grammar itself bounds operator recursion, but the cap keeps the
      // parser safe against hostile nesting if the grammar ever grows.
      if (++atom_depth_ > limits_.max_nesting_depth) {
        atom_depth_ = 0;
        return Status::ParseError(
            "atom nesting exceeds the limit of " +
            std::to_string(limits_.max_nesting_depth) + " at line " +
            std::to_string(name_token.line) + ", column " +
            std::to_string(name_token.column));
      }
      TDX_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after operator"));
      Result<Atom> inner_result = ParseAtom(scope, false);
      --atom_depth_;
      if (!inner_result.ok()) return inner_result.status();
      Atom inner = std::move(*inner_result);
      TDX_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "after operator atom"));
      TDX_ASSIGN_OR_RETURN(RelationId closure_snap,
                           ResolveClosureRelation(inner.rel, op));
      inner.rel = closure_snap;
      return inner;
    }

    Result<RelationId> rel = program_->schema.Find(name);
    if (!rel.ok()) {
      return Status::ParseError("unknown relation '" + std::string(name) +
                                "' at line " + std::to_string(name_token.line));
    }
    TDX_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after relation name"));
    Atom atom;
    atom.rel = *rel;
    do {
      if (atom.terms.size() >= limits_.max_atom_terms) {
        return Status::ParseError(
            "atom over '" + std::string(name) + "' exceeds the limit of " +
            std::to_string(limits_.max_atom_terms) + " terms at line " +
            std::to_string(name_token.line));
      }
      TDX_ASSIGN_OR_RETURN(Term term, ParseTerm(scope));
      atom.terms.push_back(term);
    } while (Match(TokenKind::kComma));
    TDX_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "after atom terms"));
    if (atom.terms.size() != program_->schema.relation(*rel).arity()) {
      return Status::ParseError(
          "atom over '" + std::string(name) + "' has arity " +
          std::to_string(atom.terms.size()) + ", expected " +
          std::to_string(program_->schema.relation(*rel).arity()) +
          " at line " + std::to_string(name_token.line));
    }
    return atom;
  }

  Result<Conjunction> ParseConjunction(VarScope* scope,
                                       bool allow_temporal_ops = false) {
    Conjunction conj;
    do {
      TDX_ASSIGN_OR_RETURN(Atom atom, ParseAtom(scope, allow_temporal_ops));
      conj.atoms.push_back(std::move(atom));
    } while (Match(TokenKind::kAmp));
    return conj;
  }

  /// Gets or creates the closure relation pair for op over the snapshot
  /// relation `base_snap`, records the ClosureSpec, and returns the
  /// closure's snapshot relation id.
  Result<RelationId> ResolveClosureRelation(RelationId base_snap,
                                            TemporalOp op) {
    const RelationSchema& base = program_->schema.relation(base_snap);
    const std::string name = ClosureRelationName(base.name, op);
    Result<RelationId> existing = program_->schema.Find(name);
    if (existing.ok()) return *existing;
    std::vector<std::string> attrs = base.attributes;
    TDX_ASSIGN_OR_RETURN(
        RelationId closure_concrete,
        program_->schema.AddRelationPair(name, std::move(attrs), base.role));
    TDX_ASSIGN_OR_RETURN(RelationId base_concrete,
                         program_->schema.TwinOf(base_snap));
    program_->closures.push_back(ParsedProgram::ClosureSpec{
        base_concrete, op, closure_concrete});
    TDX_ASSIGN_OR_RETURN(RelationId closure_snap,
                         program_->schema.TwinOf(closure_concrete));
    SyncRelationSpans();
    return closure_snap;
  }

  /// Optional "label :" prefix after the tgd/egd keyword: an identifier
  /// immediately followed by a colon.
  std::string ParseOptionalLabel() {
    if (Check(TokenKind::kIdentifier) &&
        Peek(1).kind == TokenKind::kColon) {
      std::string label(Advance().text);
      Advance();  // colon
      return label;
    }
    return "";
  }

  Status ParseTgd(bool target) {
    Advance();  // "tgd" or "ttgd"
    Tgd tgd;
    tgd.span = statement_span_;
    tgd.label = ParseOptionalLabel();
    VarScope scope;
    // Temporal operators need source data to materialize closures over, so
    // they are confined to s-t tgd bodies.
    TDX_ASSIGN_OR_RETURN(
        tgd.body, ParseConjunction(&scope, /*allow_temporal_ops=*/!target));
    TDX_RETURN_IF_ERROR(Expect(TokenKind::kArrow, "in tgd"));
    if (Check(TokenKind::kIdentifier) && cur_.text == "exists") {
      Advance();
      do {
        if (!Check(TokenKind::kIdentifier)) {
          return ErrorHere("expected existential variable name");
        }
        scope.Get(Advance().text);  // registers the variable
      } while (Match(TokenKind::kComma));
      TDX_RETURN_IF_ERROR(
          Expect(TokenKind::kColon, "after existential variables"));
    }
    TDX_ASSIGN_OR_RETURN(tgd.head, ParseConjunction(&scope));
    TDX_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "after tgd"));
    tgd.body.num_vars = tgd.head.num_vars = scope.names.size();
    tgd.body.var_names = tgd.head.var_names = scope.names;
    TDX_RETURN_IF_ERROR(WithSpan(tgd.Finalize(), tgd.span));
    if (target) {
      program_->mapping.target_tgds.push_back(std::move(tgd));
    } else {
      program_->mapping.st_tgds.push_back(std::move(tgd));
    }
    return Status::OK();
  }

  Status ParseEgd() {
    Advance();  // "egd"
    Egd egd;
    egd.span = statement_span_;
    egd.label = ParseOptionalLabel();
    VarScope scope;
    TDX_ASSIGN_OR_RETURN(egd.body, ParseConjunction(&scope));
    TDX_RETURN_IF_ERROR(Expect(TokenKind::kArrow, "in egd"));
    if (!Check(TokenKind::kIdentifier)) {
      return ErrorHere("expected variable on the left of '='");
    }
    egd.x1 = scope.Get(Advance().text);
    TDX_RETURN_IF_ERROR(Expect(TokenKind::kEquals, "in egd equality"));
    if (!Check(TokenKind::kIdentifier)) {
      return ErrorHere("expected variable on the right of '='");
    }
    egd.x2 = scope.Get(Advance().text);
    TDX_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "after egd"));
    egd.body.num_vars = scope.names.size();
    egd.body.var_names = scope.names;
    TDX_RETURN_IF_ERROR(WithSpan(egd.Finalize(), egd.span));
    program_->mapping.egds.push_back(std::move(egd));
    return Status::OK();
  }

  /// Consumes a finite interval endpoint into *out. Numerals past
  /// 2^64 - 1 are rejected rather than wrapped, and 2^64 - 1 itself is
  /// kTimeInfinity, which only `inf` may spell: on either, returns false
  /// and consumes nothing (TimePointError reports it).
  bool TakeTimePoint(TimePoint* out) {
    const std::string_view text = cur_.text;
    const std::from_chars_result r =
        std::from_chars(text.data(), text.data() + text.size(), *out);
    if (r.ec != std::errc() || *out == kTimeInfinity) return false;
    Advance();
    return true;
  }
  Status TimePointError() const {
    TimePoint value = 0;
    const std::from_chars_result r = std::from_chars(
        cur_.text.data(), cur_.text.data() + cur_.text.size(), value);
    return Status::ParseError(
        "interval endpoint " + std::string(cur_.text) +
        (r.ec != std::errc()
             ? " is out of range"
             : " is the infinity sentinel; write 'inf' for an unbounded end") +
        " at line " + std::to_string(cur_.line) + ", column " +
        std::to_string(cur_.column));
  }

  /// "[s, e)" or "[s, inf)". Each step that fails hands over to the
  /// statusful form of the same step (Expect, ErrorHere, TimePointError),
  /// which reports the error; a well-formed interval builds no Status.
  Result<Interval> ParseInterval() {
    if (!Match(TokenKind::kLBracket)) {
      return Expect(TokenKind::kLBracket, "to open interval");
    }
    if (!Check(TokenKind::kNumber)) {
      return ErrorHere("expected interval start point");
    }
    TimePoint start = 0;
    if (!TakeTimePoint(&start)) return TimePointError();
    if (!Match(TokenKind::kComma)) {
      return Expect(TokenKind::kComma, "in interval");
    }
    TimePoint end = kTimeInfinity;
    if (Check(TokenKind::kNumber)) {
      if (!TakeTimePoint(&end)) return TimePointError();
    } else if (Check(TokenKind::kIdentifier) && cur_.text == "inf") {
      Advance();
    } else {
      return ErrorHere("expected interval end point or 'inf'");
    }
    if (!Match(TokenKind::kRParen)) {
      return Expect(TokenKind::kRParen, "to close interval");
    }
    // Checked at the trust boundary: malformed input must not reach the
    // asserting Interval constructor.
    if (start < end) return Interval(start, end);
    return Status::ParseError(Interval::Make(start, end).status().message() +
                              " at line " + std::to_string(cur_.line));
  }

  /// The hot statement: a program is mostly facts. Like ParseInterval, a
  /// well-formed fact builds no Status until the insertion's.
  Status ParseFact() {
    Advance();  // "fact"
    if (!Check(TokenKind::kIdentifier)) {
      return ErrorHere("expected relation name in fact");
    }
    const Token name = Advance();
    // A run of facts over one relation resolves its name once. A resolved
    // name stays valid: declarations only add names.
    if (name.text != fact_name_) {
      Result<RelationId> snap = program_->schema.Find(name.text);
      if (!snap.ok()) {
        return WithSpan(snap.status(), SourceSpan{name.line, name.column});
      }
      TDX_ASSIGN_OR_RETURN(fact_rel_, program_->schema.TwinOf(*snap));
      fact_name_ = name.text;
    }
    if (!Match(TokenKind::kLParen)) {
      return Expect(TokenKind::kLParen, "after relation name");
    }
    // One row buffer serves every fact: the arguments, then the interval.
    fact_row_.clear();
    do {
      if (fact_row_.size() >= limits_.max_atom_terms) {
        return ErrorHere("fact over '" + std::string(name.text) +
                         "' exceeds the limit of " +
                         std::to_string(limits_.max_atom_terms) +
                         " arguments");
      }
      if (!Check(TokenKind::kString) && !Check(TokenKind::kNumber)) {
        return ErrorHere("fact arguments must be constants");
      }
      fact_row_.push_back(program_->universe.Constant(Advance().text));
    } while (Match(TokenKind::kComma));
    if (!Match(TokenKind::kRParen)) {
      return Expect(TokenKind::kRParen, "after fact arguments");
    }
    if (!Match(TokenKind::kAt)) {
      return Expect(TokenKind::kAt, "before fact interval");
    }
    TDX_ASSIGN_OR_RETURN(const Interval iv, ParseInterval());
    if (!Match(TokenKind::kSemicolon)) {
      return Expect(TokenKind::kSemicolon, "after fact");
    }
    fact_row_.push_back(Value::OfInterval(iv));
    return WithSpan(
        program_->source.Add(fact_rel_,
                             ValueSpan(fact_row_.data(), fact_row_.size())),
        statement_span_);
  }

  Status ParseQuery() {
    Advance();  // "query"
    if (!Check(TokenKind::kIdentifier)) {
      return ErrorHere("expected query name");
    }
    ConjunctiveQuery query;
    query.span = statement_span_;
    query.name = std::string(Advance().text);
    TDX_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after query name"));
    VarScope scope;
    std::vector<std::string_view> head_names;
    if (!Check(TokenKind::kRParen)) {
      do {
        if (!Check(TokenKind::kIdentifier)) {
          return ErrorHere("expected head variable");
        }
        head_names.push_back(Advance().text);
      } while (Match(TokenKind::kComma));
    }
    TDX_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "after query head"));
    TDX_RETURN_IF_ERROR(Expect(TokenKind::kColon, "before query body"));
    for (const std::string_view name : head_names) {
      query.head.push_back(scope.Get(name));
    }
    TDX_ASSIGN_OR_RETURN(query.body, ParseConjunction(&scope));
    TDX_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "after query"));
    query.body.num_vars = scope.names.size();
    query.body.var_names = scope.names;
    TDX_RETURN_IF_ERROR(WithSpan(query.Validate(), query.span));

    for (UnionQuery& uq : program_->queries) {
      if (uq.name == query.name) {
        uq.disjuncts.push_back(std::move(query));
        return Status::OK();
      }
    }
    UnionQuery uq;
    uq.name = query.name;
    uq.disjuncts.push_back(std::move(query));
    program_->queries.push_back(std::move(uq));
    return Status::OK();
  }

  /// Rewraps a semantic validation failure as a ParseError pointing at the
  /// offending statement.
  static Status WithSpan(Status status, const SourceSpan& span) {
    if (status.ok() || !span.valid()) return status;
    return Status::ParseError(std::string(status.message()) + " at " +
                              span.ToString());
  }

  Lexer lexer_;
  Token cur_;          ///< Peek(0)
  Token next_;         ///< Peek(1), valid while has_next_
  bool has_next_ = false;
  ParseLimits limits_;
  std::size_t atom_depth_ = 0;  ///< temporal-operator nesting in ParseAtom
  SourceSpan statement_span_;   ///< span of the statement being parsed
  std::string_view fact_name_;  ///< relation name of the last fact, or empty
  RelationId fact_rel_ = 0;     ///< its concrete relation
  std::vector<Value> fact_row_;  ///< ParseFact's reused row buffer
  ParsedProgram* program_;
};

}  // namespace

Result<const UnionQuery*> ParsedProgram::FindQuery(
    std::string_view name) const {
  for (const UnionQuery& q : queries) {
    if (q.name == name) return &q;
  }
  return Status::NotFound("no query named '" + std::string(name) + "'");
}

Result<std::unique_ptr<ParsedProgram>> ParseProgram(std::string_view text,
                                                    const ParseLimits& limits) {
  auto program = std::make_unique<ParsedProgram>();
  Parser parser(text, limits, program.get());
  TDX_RETURN_IF_ERROR(parser.Run());
  return program;
}

Result<std::string> ReadProgramFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::string text(ec ? 0 : size, '\0');
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(in.gcount()));
  for (char chunk[4096]; in.read(chunk, sizeof chunk) || in.gcount() > 0;) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return text;
}

}  // namespace tdx
