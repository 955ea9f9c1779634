// The mapping analyzer: termination ladder, position graphs, certificates,
// and the diagnostic catalogue (positive and negative cases per ID).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/position_graph.h"
#include "src/analysis/termination.h"
#include "src/core/cchase.h"
#include "src/relational/chase.h"
#include "tests/test_util.h"

namespace tdx {
namespace {

using ::tdx::testing::kPaperProgram;
using ::tdx::testing::ParseOrDie;

Atom MakeAtom(RelationId rel, std::vector<Term> terms) {
  Atom atom;
  atom.rel = rel;
  atom.terms = std::move(terms);
  return atom;
}

std::vector<const Diagnostic*> FindAll(const AnalysisReport& report,
                                       std::string_view id) {
  std::vector<const Diagnostic*> out;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.id == id) out.push_back(&d);
  }
  return out;
}

bool Has(const AnalysisReport& report, std::string_view id) {
  return !FindAll(report, id).empty();
}

AnalysisReport LintText(std::string_view text) {
  auto program = ParseOrDie(text);
  return AnalyzeProgram(*program);
}

/// E(x, y) -> exists z: E(y, z): the classic non-terminating self-feed.
Tgd SelfFeedTgd(RelationId e) {
  Tgd loop;
  loop.body.atoms = {MakeAtom(e, {Term::Var(0), Term::Var(1)})};
  loop.head.atoms = {MakeAtom(e, {Term::Var(1), Term::Var(2)})};
  loop.body.num_vars = loop.head.num_vars = 3;
  EXPECT_TRUE(loop.Finalize().ok());
  return loop;
}

/// Two tgds that are not weakly acyclic but stratify thanks to a constant
/// clash: s1 tags its B facts "new", s2 only reads "old"-tagged ones, so
/// s1 can never re-activate s2 and the position cycle is harmless.
///   s1: A(x) -> exists z: B(x, z, "new")
///   s2: B(u, y, "old") -> A(y)
struct StratifiedPair {
  Schema schema;
  Universe universe;
  std::vector<Tgd> tgds;
};

StratifiedPair MakeStratifiedPair() {
  StratifiedPair p;
  const RelationId a = *p.schema.AddRelation("A", {"v"}, SchemaRole::kTarget);
  const RelationId b =
      *p.schema.AddRelation("B", {"v", "w", "tag"}, SchemaRole::kTarget);
  Tgd s1;
  s1.body.atoms = {MakeAtom(a, {Term::Var(0)})};
  s1.head.atoms = {MakeAtom(
      b, {Term::Var(0), Term::Var(1), Term::Val(p.universe.Constant("new"))})};
  s1.body.num_vars = s1.head.num_vars = 2;
  EXPECT_TRUE(s1.Finalize().ok());
  Tgd s2;
  s2.body.atoms = {MakeAtom(
      b, {Term::Var(0), Term::Var(1), Term::Val(p.universe.Constant("old"))})};
  s2.head.atoms = {MakeAtom(a, {Term::Var(1)})};
  s2.body.num_vars = s2.head.num_vars = 2;
  EXPECT_TRUE(s2.Finalize().ok());
  p.tgds = {s1, s2};
  return p;
}

/// The parsed counterpart of MakeStratifiedPair, as a full program.
constexpr std::string_view kStratifiedProgram = R"(
  source Src(v);
  target A(v);
  target B(v, w, tag);
  tgd feed: Src(x) -> A(x);
  ttgd s1: A(x) -> exists z: B(x, z, "new");
  ttgd s2: B(_, y, "old") -> A(y);
  fact Src("a") @ [0, 4);
)";

constexpr std::string_view kAcyclicTtgdProgram = R"(
  source F(a, b);
  target R(a, b);
  tgd copy: F(x, y) -> R(x, y);
  ttgd trans: R(x, y) & R(y, z) -> R(x, z);
)";

// ---------------------------------------------------------------------------
// The clean baseline: the paper's own program lints clean.

TEST(AnalyzerTest, PaperProgramIsDiagnosticFree) {
  const AnalysisReport report = LintText(kPaperProgram);
  EXPECT_TRUE(report.diagnostics.empty()) << RenderText(report, "paper");
  EXPECT_EQ(report.certificate.criterion, TerminationCriterion::kNoTargetTgds);
  EXPECT_TRUE(report.certificate.guarantees_termination());
  EXPECT_FALSE(report.HasErrors());
}

// ---------------------------------------------------------------------------
// The termination ladder.

TEST(TerminationLadderTest, EmptyTgdsAreTheBottomRung) {
  Schema schema;
  const TerminationCertificate cert = CertifyTermination({}, schema);
  EXPECT_EQ(cert.criterion, TerminationCriterion::kNoTargetTgds);
  EXPECT_TRUE(cert.guarantees_termination());
}

TEST(TerminationLadderTest, FullTgdsAreRichlyAcyclic) {
  Schema schema;
  const RelationId edge =
      *schema.AddRelation("Edge", {"a", "b"}, SchemaRole::kTarget);
  Tgd tc;
  tc.body.atoms = {MakeAtom(edge, {Term::Var(0), Term::Var(1)}),
                   MakeAtom(edge, {Term::Var(1), Term::Var(2)})};
  tc.head.atoms = {MakeAtom(edge, {Term::Var(0), Term::Var(2)})};
  tc.body.num_vars = tc.head.num_vars = 3;
  ASSERT_TRUE(tc.Finalize().ok());
  const TerminationCertificate cert = CertifyTermination({tc}, schema);
  EXPECT_EQ(cert.criterion, TerminationCriterion::kRichlyAcyclic);
}

TEST(TerminationLadderTest, HeadDisconnectedExistentialIsWeaklyNotRichly) {
  // N(x) -> exists y: N(y): no weak edges at all, but the extended graph
  // draws the special self-loop N.a -*-> N.a.
  Schema schema;
  const RelationId n = *schema.AddRelation("N", {"a"}, SchemaRole::kTarget);
  Tgd pad;
  pad.body.atoms = {MakeAtom(n, {Term::Var(0)})};
  pad.head.atoms = {MakeAtom(n, {Term::Var(1)})};
  pad.body.num_vars = pad.head.num_vars = 2;
  ASSERT_TRUE(pad.Finalize().ok());
  const TerminationCertificate cert = CertifyTermination({pad}, schema);
  EXPECT_EQ(cert.criterion, TerminationCriterion::kWeaklyAcyclic);
  EXPECT_TRUE(cert.guarantees_termination());
}

TEST(TerminationLadderTest, ConstantClashStratifies) {
  StratifiedPair p = MakeStratifiedPair();
  const TerminationCertificate cert = CertifyTermination(p.tgds, p.schema);
  EXPECT_EQ(cert.criterion, TerminationCriterion::kStratified);
  EXPECT_TRUE(cert.guarantees_termination());
  EXPECT_NE(cert.witness.find("not weakly acyclic"), std::string::npos)
      << cert.witness;
}

TEST(TerminationLadderTest, SelfFeedDefeatsEveryRung) {
  Schema schema;
  const RelationId e =
      *schema.AddRelation("E", {"a", "b"}, SchemaRole::kTarget);
  const TerminationCertificate cert =
      CertifyTermination({SelfFeedTgd(e)}, schema);
  EXPECT_EQ(cert.criterion, TerminationCriterion::kUnknown);
  EXPECT_FALSE(cert.guarantees_termination());
  EXPECT_NE(cert.witness.find("-*->"), std::string::npos) << cert.witness;
}

TEST(TerminationLadderTest, MayActivateRespectsConstantClash) {
  StratifiedPair p = MakeStratifiedPair();
  // s1 writes tag "new"; s2 reads tag "old": no activation.
  EXPECT_FALSE(MayActivate(p.tgds[0], p.tgds[1]));
  // s2 writes A facts, which s1 reads.
  EXPECT_TRUE(MayActivate(p.tgds[1], p.tgds[0]));
  // With the clash, the precedence graph is acyclic: two singleton SCCs.
  const auto components = PrecedenceComponents(p.tgds);
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0].size(), 1u);
  EXPECT_EQ(components[1].size(), 1u);
}

TEST(TerminationLadderTest, PrecedenceCycleFormsOneComponent) {
  Schema schema;
  const RelationId b =
      *schema.AddRelation("B", {"v", "w"}, SchemaRole::kTarget);
  const RelationId d =
      *schema.AddRelation("D", {"v", "w"}, SchemaRole::kTarget);
  Tgd t1;
  t1.body.atoms = {MakeAtom(b, {Term::Var(0), Term::Var(1)})};
  t1.head.atoms = {MakeAtom(d, {Term::Var(1), Term::Var(2)})};
  t1.body.num_vars = t1.head.num_vars = 3;
  ASSERT_TRUE(t1.Finalize().ok());
  Tgd t2;
  t2.body.atoms = {MakeAtom(d, {Term::Var(0), Term::Var(1)})};
  t2.head.atoms = {MakeAtom(b, {Term::Var(1), Term::Var(2)})};
  t2.body.num_vars = t2.head.num_vars = 3;
  ASSERT_TRUE(t2.Finalize().ok());
  const auto components = PrecedenceComponents({t1, t2});
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].size(), 2u);
}

// ---------------------------------------------------------------------------
// Position graphs and the compatibility shim.

TEST(PositionGraphTest, WeakGraphNamesTheSpecialCycle) {
  Schema schema;
  const RelationId e =
      *schema.AddRelation("E", {"a", "b"}, SchemaRole::kTarget);
  const std::vector<Tgd> tgds = {SelfFeedTgd(e)};
  const PositionGraph g =
      PositionGraph::Build(tgds, schema, PositionGraph::Kind::kWeak);
  const auto cycle = g.FindSpecialCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->tgd_index, 0u);
  const std::string rendered = g.FormatCycle(schema, *cycle);
  EXPECT_NE(rendered.find("-*->"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("E.b"), std::string::npos) << rendered;
}

TEST(PositionGraphTest, RichGraphSeesHeadDisconnectedExistentials) {
  Schema schema;
  const RelationId n = *schema.AddRelation("N", {"a"}, SchemaRole::kTarget);
  Tgd pad;
  pad.body.atoms = {MakeAtom(n, {Term::Var(0)})};
  pad.head.atoms = {MakeAtom(n, {Term::Var(1)})};
  pad.body.num_vars = pad.head.num_vars = 2;
  ASSERT_TRUE(pad.Finalize().ok());
  const std::vector<Tgd> tgds = {pad};
  const PositionGraph weak =
      PositionGraph::Build(tgds, schema, PositionGraph::Kind::kWeak);
  EXPECT_FALSE(weak.FindSpecialCycle().has_value());
  const PositionGraph rich =
      PositionGraph::Build(tgds, schema, PositionGraph::Kind::kRich);
  const auto cycle = rich.FindSpecialCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(rich.FormatCycle(schema, *cycle), "N.a -*-> N.a");
}

TEST(PositionGraphTest, CheckWeaklyAcyclicNamesTheCycle) {
  Schema schema;
  const RelationId e =
      *schema.AddRelation("E", {"a", "b"}, SchemaRole::kTarget);
  const Status status = CheckWeaklyAcyclic({SelfFeedTgd(e)}, schema);
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("-*->"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("E.b"), std::string::npos)
      << status.message();
}

// ---------------------------------------------------------------------------
// Certificates in the validators and engines.

TEST(CertificateTest, ToStringRendersCriterionAndWitness) {
  TerminationCertificate cert;
  EXPECT_EQ(cert.ToString(), "no-target-tgds");
  cert.criterion = TerminationCriterion::kUnknown;
  cert.witness = "E.b -*-> E.b";
  EXPECT_EQ(cert.ToString(), "unknown (cycle: E.b -*-> E.b)");
  cert.criterion = TerminationCriterion::kStratified;
  cert.witness = "w";
  EXPECT_EQ(cert.ToString(), "stratified (w)");
}

TEST(CertificateTest, ValidateMappingAcceptsStratifiedTgds) {
  StratifiedPair p = MakeStratifiedPair();
  Mapping mapping;
  mapping.target_tgds = p.tgds;
  EXPECT_TRUE(ValidateMapping(mapping, p.schema).ok());
}

TEST(CertificateTest, ValidateMappingRejectsUnknownWithCycle) {
  Schema schema;
  const RelationId e =
      *schema.AddRelation("E", {"a", "b"}, SchemaRole::kTarget);
  Mapping mapping;
  mapping.target_tgds = {SelfFeedTgd(e)};
  const Status status = ValidateMapping(mapping, schema);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("weakly acyclic"), std::string::npos);
  EXPECT_NE(status.message().find("-*->"), std::string::npos)
      << status.message();
}

TEST(CertificateTest, ValidateAndCertifyStoresTheCertificate) {
  StratifiedPair p = MakeStratifiedPair();
  Mapping mapping;
  mapping.target_tgds = p.tgds;
  ASSERT_FALSE(mapping.certificate.has_value());
  ASSERT_TRUE(ValidateAndCertifyMapping(&mapping, p.schema).ok());
  ASSERT_TRUE(mapping.certificate.has_value());
  EXPECT_EQ(mapping.certificate->criterion, TerminationCriterion::kStratified);
}

TEST(CertificateTest, ParserCertifiesMappingAndLifted) {
  auto program = ParseOrDie(kPaperProgram);
  ASSERT_TRUE(program->mapping.certificate.has_value());
  EXPECT_EQ(program->mapping.certificate->criterion,
            TerminationCriterion::kNoTargetTgds);
  ASSERT_TRUE(program->lifted.certificate.has_value());
  EXPECT_EQ(program->lifted.certificate->criterion,
            TerminationCriterion::kNoTargetTgds);

  auto ttgds = ParseOrDie(kAcyclicTtgdProgram);
  ASSERT_TRUE(ttgds->mapping.certificate.has_value());
  EXPECT_EQ(ttgds->mapping.certificate->criterion,
            TerminationCriterion::kRichlyAcyclic);
}

TEST(CertificateTest, ChaseSnapshotRecordsCertificate) {
  Schema schema;
  Universe u;
  const RelationId flight =
      *schema.AddRelation("Flight", {"a", "b"}, SchemaRole::kSource);
  const RelationId reach =
      *schema.AddRelation("Reach", {"a", "b"}, SchemaRole::kTarget);
  Tgd copy;
  copy.body.atoms = {MakeAtom(flight, {Term::Var(0), Term::Var(1)})};
  copy.head.atoms = {MakeAtom(reach, {Term::Var(0), Term::Var(1)})};
  copy.body.num_vars = copy.head.num_vars = 2;
  ASSERT_TRUE(copy.Finalize().ok());
  Tgd trans;
  trans.body.atoms = {MakeAtom(reach, {Term::Var(0), Term::Var(1)}),
                      MakeAtom(reach, {Term::Var(1), Term::Var(2)})};
  trans.head.atoms = {MakeAtom(reach, {Term::Var(0), Term::Var(2)})};
  trans.body.num_vars = trans.head.num_vars = 3;
  ASSERT_TRUE(trans.Finalize().ok());
  Mapping mapping;
  mapping.st_tgds = {copy};
  mapping.target_tgds = {trans};

  Instance source(&schema);
  source.Insert(flight, {u.Constant("a"), u.Constant("b")});
  auto outcome = ChaseSnapshot(source, mapping, &u);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->stats.certificate.has_value());
  EXPECT_EQ(outcome->stats.certificate->criterion,
            TerminationCriterion::kRichlyAcyclic);
}

TEST(CertificateTest, ChaseSnapshotRefusesNonTerminatingTgds) {
  Schema schema;
  Universe u;
  const RelationId e =
      *schema.AddRelation("E", {"a", "b"}, SchemaRole::kTarget);
  Mapping mapping;
  mapping.target_tgds = {SelfFeedTgd(e)};
  Instance source(&schema);
  auto outcome = ChaseSnapshot(source, mapping, &u);
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.status().message().find("refusing to chase"),
            std::string::npos)
      << outcome.status();
}

TEST(CertificateTest, CChaseRecordsCertificate) {
  auto program = ParseOrDie(kPaperProgram);
  auto chase = CChase(program->source, program->lifted, &program->universe);
  ASSERT_TRUE(chase.ok()) << chase.status();
  ASSERT_TRUE(chase->stats.certificate.has_value());
  EXPECT_EQ(chase->stats.certificate->criterion,
            TerminationCriterion::kNoTargetTgds);
}

TEST(CertificateTest, CChaseConsultsAProvidedCertificate) {
  auto program = ParseOrDie(kPaperProgram);
  TerminationCertificate unknown;
  unknown.criterion = TerminationCriterion::kUnknown;
  unknown.witness = "X.a -*-> X.a";
  program->lifted.certificate = unknown;
  auto chase = CChase(program->source, program->lifted, &program->universe);
  ASSERT_FALSE(chase.ok());
  EXPECT_NE(chase.status().message().find("refusing to c-chase"),
            std::string::npos)
      << chase.status();
}

TEST(CertificateTest, CChaseRunsStratifiedMappings) {
  auto program = ParseOrDie(kStratifiedProgram);
  auto chase = CChase(program->source, program->lifted, &program->universe);
  ASSERT_TRUE(chase.ok()) << chase.status();
  EXPECT_EQ(chase->kind, ChaseResultKind::kSuccess);
  ASSERT_TRUE(chase->stats.certificate.has_value());
  EXPECT_EQ(chase->stats.certificate->criterion,
            TerminationCriterion::kStratified);
}

// ---------------------------------------------------------------------------
// Parse errors point at the offending statement.

TEST(AnalyzerTest, SemanticParseErrorsCarryTheStatementSpan) {
  auto r = ParseProgram(R"(
    source A(x);
    target T(x);
    egd e1: T(x) -> x = y;
  )");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("at line 4"), std::string::npos)
      << r.status();
}

// ---------------------------------------------------------------------------
// TDX000: structurally broken input.

TEST(AnalyzerTest, Tdx000StructurallyInvalidMapping) {
  Schema schema;
  const RelationId r = *schema.AddRelation("R", {"a", "b"}, SchemaRole::kSource);
  Tgd broken;
  broken.body.atoms = {MakeAtom(r, {Term::Var(0)})};  // arity mismatch
  broken.head.atoms = {MakeAtom(r, {Term::Var(0), Term::Var(0)})};
  broken.body.num_vars = broken.head.num_vars = 1;
  Mapping mapping;
  mapping.st_tgds = {broken};
  AnalysisInput input;
  input.schema = &schema;
  input.mapping = &mapping;
  const AnalysisReport report = Analyze(input);
  ASSERT_EQ(report.diagnostics.size(), 1u) << RenderText(report, "t");
  EXPECT_EQ(report.diagnostics[0].id, "TDX000");
  EXPECT_TRUE(report.HasErrors());
}

TEST(AnalyzerTest, Tdx000AbsentOnWellFormedInput) {
  EXPECT_FALSE(Has(LintText(kPaperProgram), "TDX000"));
}

// ---------------------------------------------------------------------------
// TDX001 / TDX002 / TDX003: the ladder's diagnostics.

TEST(AnalyzerTest, Tdx001NonTerminatingTargetTgds) {
  Schema schema;
  const RelationId e =
      *schema.AddRelation("E", {"a", "b"}, SchemaRole::kTarget);
  Mapping mapping;
  mapping.target_tgds = {SelfFeedTgd(e)};
  AnalysisInput input;
  input.schema = &schema;
  input.mapping = &mapping;
  const AnalysisReport report = Analyze(input);
  const auto found = FindAll(report, "TDX001");
  ASSERT_EQ(found.size(), 1u) << RenderText(report, "t");
  EXPECT_EQ(found[0]->severity, Severity::kError);
  EXPECT_NE(found[0]->message.find("-*->"), std::string::npos)
      << found[0]->message;
  EXPECT_TRUE(report.HasErrors());
  EXPECT_EQ(report.certificate.criterion, TerminationCriterion::kUnknown);
}

TEST(AnalyzerTest, Tdx001AbsentOnAcyclicTargetTgds) {
  const AnalysisReport report = LintText(kAcyclicTtgdProgram);
  EXPECT_FALSE(Has(report, "TDX001")) << RenderText(report, "t");
  EXPECT_TRUE(report.certificate.guarantees_termination());
}

TEST(AnalyzerTest, Tdx002StratifiedOnlyMapping) {
  const AnalysisReport report = LintText(kStratifiedProgram);
  const auto found = FindAll(report, "TDX002");
  ASSERT_EQ(found.size(), 1u) << RenderText(report, "t");
  EXPECT_EQ(found[0]->severity, Severity::kWarning);
  EXPECT_NE(found[0]->message.find("stratification"), std::string::npos)
      << found[0]->message;
  EXPECT_TRUE(found[0]->span.valid());
  EXPECT_EQ(report.certificate.criterion, TerminationCriterion::kStratified);
  // The planner also notices that s2 can never fire: the only head writing
  // B carries "new" where s2's body demands "old".
  EXPECT_TRUE(Has(report, "TDX018")) << RenderText(report, "t");
  EXPECT_EQ(report.diagnostics.size(), 2u) << RenderText(report, "t");
}

TEST(AnalyzerTest, Tdx002AbsentOnWeaklyAcyclicMapping) {
  EXPECT_FALSE(Has(LintText(kAcyclicTtgdProgram), "TDX002"));
}

TEST(AnalyzerTest, Tdx003WeaklyButNotRichlyAcyclic) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    target N(x);
    tgd copy: A(x) -> N(x);
    ttgd pad: N(_) -> exists y: N(y);
  )");
  const auto found = FindAll(report, "TDX003");
  ASSERT_EQ(found.size(), 1u) << RenderText(report, "t");
  EXPECT_EQ(found[0]->severity, Severity::kNote);
  EXPECT_NE(found[0]->message.find("richly"), std::string::npos)
      << found[0]->message;
  EXPECT_EQ(report.certificate.criterion,
            TerminationCriterion::kWeaklyAcyclic);
}

TEST(AnalyzerTest, Tdx003AbsentOnFullTgds) {
  const AnalysisReport report = LintText(kAcyclicTtgdProgram);
  EXPECT_FALSE(Has(report, "TDX003")) << RenderText(report, "t");
  EXPECT_EQ(report.certificate.criterion,
            TerminationCriterion::kRichlyAcyclic);
}

// ---------------------------------------------------------------------------
// TDX010: bodies that never hold at a common time point.

TEST(AnalyzerTest, Tdx010DisjointTimeCoverage) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    source B(x);
    target T(x);
    tgd join: A(x) & B(x) -> T(x);
    fact A("a") @ [0, 5);
    fact B("a") @ [5, 10);
  )");
  const auto found = FindAll(report, "TDX010");
  ASSERT_EQ(found.size(), 1u) << RenderText(report, "t");
  EXPECT_EQ(found[0]->severity, Severity::kWarning);
  EXPECT_NE(found[0]->message.find("common time point"), std::string::npos);
  EXPECT_NE(found[0]->message.find("'A'"), std::string::npos);
  EXPECT_NE(found[0]->message.find("'B'"), std::string::npos);
}

TEST(AnalyzerTest, Tdx010AbsentWhenCoverageOverlaps) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    source B(x);
    target T(x);
    tgd join: A(x) & B(x) -> T(x);
    fact A("a") @ [0, 5);
    fact B("a") @ [3, 10);
  )");
  EXPECT_FALSE(Has(report, "TDX010")) << RenderText(report, "t");
}

// ---------------------------------------------------------------------------
// TDX011: egds that can only equate distinct constants.

TEST(AnalyzerTest, Tdx011EgdOverDisjointConstants) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    target L(x, v);
    target R(x, v);
    tgd t1: A(x) -> L(x, "red");
    tgd t2: A(x) -> R(x, "blue");
    egd e1: L(x, v1) & R(x, v2) -> v1 = v2;
  )");
  const auto found = FindAll(report, "TDX011");
  ASSERT_EQ(found.size(), 1u) << RenderText(report, "t");
  EXPECT_EQ(found[0]->severity, Severity::kWarning);
  EXPECT_NE(found[0]->message.find("distinct constants"), std::string::npos);
  EXPECT_EQ(report.diagnostics.size(), 1u) << RenderText(report, "t");
}

TEST(AnalyzerTest, Tdx011AbsentWhenConstantsCanAgree) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    target L(x, v);
    target R(x, v);
    tgd t1: A(x) -> L(x, "red");
    tgd t2: A(x) -> R(x, "red");
    egd e1: L(x, v1) & R(x, v2) -> v1 = v2;
  )");
  EXPECT_FALSE(Has(report, "TDX011")) << RenderText(report, "t");
}

TEST(AnalyzerTest, Tdx011AbsentWhenASideMayBeNull) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    target L(x, v);
    target R(x, v);
    tgd t1: A(x) -> L(x, "red");
    tgd t2: A(x) -> exists v: R(x, v);
    egd e1: L(x, v1) & R(x, v2) -> v1 = v2;
  )");
  EXPECT_FALSE(Has(report, "TDX011")) << RenderText(report, "t");
}

// ---------------------------------------------------------------------------
// TDX012: single-use variables.

TEST(AnalyzerTest, Tdx012SingleUseVariable) {
  const AnalysisReport report = LintText(R"(
    source A(x, y);
    target T(x);
    tgd t1: A(x, y) -> T(x);
  )");
  const auto found = FindAll(report, "TDX012");
  ASSERT_EQ(found.size(), 1u) << RenderText(report, "t");
  EXPECT_EQ(found[0]->severity, Severity::kNote);
  EXPECT_NE(found[0]->message.find("'y'"), std::string::npos);
  EXPECT_NE(found[0]->hint.find("'_'"), std::string::npos);
}

TEST(AnalyzerTest, Tdx012AbsentForAnonymousAndEqualityUses) {
  const AnalysisReport report = LintText(R"(
    source A(x, y);
    target T(x, y);
    tgd t1: A(x, _) -> T(x, x);
    egd e1: T(x, y) -> x = y;
  )");
  EXPECT_FALSE(Has(report, "TDX012")) << RenderText(report, "t");
}

// ---------------------------------------------------------------------------
// TDX013: dead relations.

TEST(AnalyzerTest, Tdx013DeadRelation) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    source Unused(x);
    target T(x);
    tgd t1: A(x) -> T(x);
  )");
  const auto found = FindAll(report, "TDX013");
  ASSERT_EQ(found.size(), 1u) << RenderText(report, "t");
  EXPECT_EQ(found[0]->severity, Severity::kWarning);
  EXPECT_NE(found[0]->message.find("'Unused'"), std::string::npos);
  // The diagnostic points at the declaration on line 3.
  EXPECT_EQ(found[0]->span.line, 3u);
}

TEST(AnalyzerTest, Tdx013AbsentWhenAllRelationsAreUsed) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    target T(x);
    tgd t1: A(x) -> T(x);
  )");
  EXPECT_FALSE(Has(report, "TDX013")) << RenderText(report, "t");
}

// ---------------------------------------------------------------------------
// TDX014 / TDX015: duplicate and implied dependencies.

TEST(AnalyzerTest, Tdx014DuplicateTgdUpToRenaming) {
  const AnalysisReport report = LintText(R"(
    source A(x, y);
    target T(x, y);
    tgd t1: A(x, y) -> T(x, y);
    tgd t2: A(u, v) -> T(u, v);
  )");
  const auto found = FindAll(report, "TDX014");
  ASSERT_EQ(found.size(), 1u) << RenderText(report, "t");
  EXPECT_EQ(found[0]->severity, Severity::kWarning);
  EXPECT_NE(found[0]->message.find("'t2'"), std::string::npos);
  EXPECT_NE(found[0]->message.find("'t1'"), std::string::npos);
  EXPECT_EQ(report.diagnostics.size(), 1u) << RenderText(report, "t");
}

TEST(AnalyzerTest, Tdx014DuplicateEgdUpToRenaming) {
  const AnalysisReport report = LintText(R"(
    source A(x, y);
    target T(x, y);
    tgd t1: A(x, y) -> T(x, y);
    egd e1: T(x, y) & T(x, y2) -> y = y2;
    egd e2: T(a, b) & T(a, b2) -> b = b2;
  )");
  const auto found = FindAll(report, "TDX014");
  ASSERT_EQ(found.size(), 1u) << RenderText(report, "t");
  EXPECT_NE(found[0]->message.find("'e2'"), std::string::npos);
}

TEST(AnalyzerTest, Tdx014AbsentForPermutedHeads) {
  const AnalysisReport report = LintText(R"(
    source A(x, y);
    target T(x, y);
    tgd t1: A(x, y) -> T(x, y);
    tgd t2: A(u, v) -> T(v, u);
  )");
  EXPECT_FALSE(Has(report, "TDX014")) << RenderText(report, "t");
  EXPECT_FALSE(Has(report, "TDX015")) << RenderText(report, "t");
}

TEST(AnalyzerTest, Tdx015SpecializedTgdIsImplied) {
  const AnalysisReport report = LintText(R"(
    source A(x, y);
    target T(x, y);
    tgd gen: A(x, y) -> T(x, y);
    tgd spec: A(x, x) -> T(x, x);
  )");
  const auto found = FindAll(report, "TDX015");
  ASSERT_EQ(found.size(), 1u) << RenderText(report, "t");
  EXPECT_EQ(found[0]->severity, Severity::kNote);
  EXPECT_NE(found[0]->message.find("'spec'"), std::string::npos);
  EXPECT_NE(found[0]->message.find("'gen'"), std::string::npos);
  EXPECT_EQ(report.diagnostics.size(), 1u) << RenderText(report, "t");
}

TEST(AnalyzerTest, Tdx015AbsentOnIndependentTgds) {
  EXPECT_FALSE(Has(LintText(kPaperProgram), "TDX015"));
}

// ---------------------------------------------------------------------------
// TDX017: mappings with no s-t tgds.

TEST(AnalyzerTest, Tdx017EmptyMapping) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    fact A("a") @ [0, 1);
  )");
  const auto found = FindAll(report, "TDX017");
  ASSERT_EQ(found.size(), 1u) << RenderText(report, "t");
  EXPECT_EQ(found[0]->severity, Severity::kWarning);
  EXPECT_NE(found[0]->message.find("no s-t tgds"), std::string::npos);
  // The unused source relation is flagged as dead too.
  EXPECT_TRUE(Has(report, "TDX013")) << RenderText(report, "t");
}

TEST(AnalyzerTest, Tdx017AbsentWhenTgdsExist) {
  EXPECT_FALSE(Has(LintText(kPaperProgram), "TDX017"));
}

// ---------------------------------------------------------------------------
// TDX018 / TDX019: rules the chase planner proves can never do anything.

TEST(AnalyzerTest, Tdx018DeadRuleOnUnwrittenRelation) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    target T(x);
    target U(x);
    target V(x);
    tgd t1: A(x) -> T(x);
    ttgd dead: U(x) -> V(x);
  )");
  const auto found = FindAll(report, "TDX018");
  ASSERT_EQ(found.size(), 1u) << RenderText(report, "t");
  EXPECT_EQ(found[0]->severity, Severity::kWarning);
  EXPECT_NE(found[0]->message.find("'dead'"), std::string::npos);
  EXPECT_NE(found[0]->message.find("no live rule head ever writes"),
            std::string::npos);
  EXPECT_EQ(found[0]->span.line, 7u);
}

TEST(AnalyzerTest, Tdx018DeadRuleOnConstantClash) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    target T(x, tag);
    target U(x);
    tgd t1: A(x) -> T(x, "ok");
    ttgd dead: T(x, "bad") -> U(x);
  )");
  const auto found = FindAll(report, "TDX018");
  ASSERT_EQ(found.size(), 1u) << RenderText(report, "t");
  EXPECT_NE(found[0]->message.find("clashes"), std::string::npos);
}

TEST(AnalyzerTest, Tdx018AbsentWhenEveryRuleCanFire) {
  EXPECT_FALSE(Has(LintText(kAcyclicTtgdProgram), "TDX018"));
}

TEST(AnalyzerTest, Tdx019EffectFreeEgd) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    target T(x, tag);
    tgd t1: A(x) -> T(x, "ok");
    egd e1: T(x, s) & T(x, s2) -> s = s2;
  )");
  const auto found = FindAll(report, "TDX019");
  ASSERT_EQ(found.size(), 1u) << RenderText(report, "t");
  EXPECT_EQ(found[0]->severity, Severity::kWarning);
  EXPECT_NE(found[0]->message.find("'e1'"), std::string::npos);
  EXPECT_EQ(found[0]->span.line, 5u);
}

TEST(AnalyzerTest, Tdx019AbsentWhenEgdCanFail) {
  // Pinned to two *different* constants: every firing fails the chase, so
  // the egd is anything but effect-free (TDX011 covers this case instead).
  const AnalysisReport report = LintText(R"(
    source A(x);
    target T(x, tag);
    tgd t1: A(x) -> T(x, "a");
    tgd t2: A(x) -> T(x, "b");
    egd e1: T(x, s) & T(x, s2) -> s = s2;
  )");
  EXPECT_FALSE(Has(report, "TDX019")) << RenderText(report, "t");
}

TEST(AnalyzerTest, Tdx019AbsentWhenEgdMergesNulls) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    target T(x, v);
    tgd t1: A(x) -> exists v: T(x, v);
    egd e1: T(x, v) & T(x, v2) -> v = v2;
  )");
  EXPECT_FALSE(Has(report, "TDX019")) << RenderText(report, "t");
}

// ---------------------------------------------------------------------------
// TDX020: egd-tgd interference.

TEST(AnalyzerTest, Tdx020EgdInterferesWithTgdBody) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    target T(x, v);
    target U(x, v);
    tgd t1: A(x) -> exists v: T(x, v);
    egd e1: T(x, v) & T(x, v2) -> v = v2;
    ttgd t2: T(x, v) -> U(x, v);
  )");
  const auto found = FindAll(report, "TDX020");
  ASSERT_EQ(found.size(), 1u) << RenderText(report, "t");
  EXPECT_EQ(found[0]->severity, Severity::kNote);
  EXPECT_NE(found[0]->message.find("'e1'"), std::string::npos);
  EXPECT_NE(found[0]->message.find("'t2'"), std::string::npos);
  // Points at the tgd whose frontier the merges invalidate.
  EXPECT_EQ(found[0]->span.line, 7u);
}

TEST(AnalyzerTest, Tdx020AbsentWithoutNulls) {
  // Same shape, but the head value is copied from the source instead of
  // invented: the egd can fail yet never merges, so no interference.
  const AnalysisReport report = LintText(R"(
    source A(x, v);
    target T(x, v);
    target U(x, v);
    tgd t1: A(x, v) -> T(x, v);
    egd e1: T(x, v) & T(x, v2) -> v = v2;
    ttgd t2: T(x, v) -> U(x, v);
  )");
  EXPECT_FALSE(Has(report, "TDX020")) << RenderText(report, "t");
}

// ---------------------------------------------------------------------------
// TDX021 / TDX022: stratum shape diagnostics.

TEST(AnalyzerTest, Tdx021MutualRecursionSharesAStratum) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    target E(x);
    target O(x);
    tgd s: A(x) -> E(x);
    ttgd o1: E(x) -> O(x);
    ttgd o2: O(x) -> E(x);
  )");
  const auto found = FindAll(report, "TDX021");
  ASSERT_EQ(found.size(), 1u) << RenderText(report, "t");
  EXPECT_EQ(found[0]->severity, Severity::kNote);
  EXPECT_NE(found[0]->message.find("'o1'"), std::string::npos);
  EXPECT_NE(found[0]->message.find("'o2'"), std::string::npos);
}

TEST(AnalyzerTest, Tdx021AbsentOnSelfRecursion) {
  // A rule feeding itself is a singleton component; only genuine
  // multi-rule cycles are worth a note.
  EXPECT_FALSE(Has(LintText(kAcyclicTtgdProgram), "TDX021"));
}

TEST(AnalyzerTest, Tdx022DeclarationInvertsStratumOrder) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    target R(x);
    target T(x);
    target U(x);
    tgd s: A(x) -> R(x);
    ttgd late: T(x) -> U(x);
    ttgd mk: R(x) -> T(x);
  )");
  const auto found = FindAll(report, "TDX022");
  ASSERT_EQ(found.size(), 1u) << RenderText(report, "t");
  EXPECT_EQ(found[0]->severity, Severity::kNote);
  EXPECT_NE(found[0]->message.find("'late'"), std::string::npos);
  EXPECT_EQ(found[0]->span.line, 7u);
}

TEST(AnalyzerTest, Tdx022AbsentInStratumOrder) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    target R(x);
    target T(x);
    target U(x);
    tgd s: A(x) -> R(x);
    ttgd mk: R(x) -> T(x);
    ttgd late: T(x) -> U(x);
  )");
  EXPECT_FALSE(Has(report, "TDX022")) << RenderText(report, "t");
}

// ---------------------------------------------------------------------------
// TDX023 / TDX024: dataflow that never reaches a query.

TEST(AnalyzerTest, Tdx023WrittenNeverReadRelation) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    target T(x);
    target L(x);
    tgd t1: A(x) -> T(x);
    tgd t2: A(x) -> L(x);
    query q(x): T(x);
  )");
  const auto found = FindAll(report, "TDX023");
  ASSERT_EQ(found.size(), 1u) << RenderText(report, "t");
  EXPECT_EQ(found[0]->severity, Severity::kNote);
  EXPECT_NE(found[0]->message.find("'L'"), std::string::npos);
  // Points at the relation declaration.
  EXPECT_EQ(found[0]->span.line, 4u);
}

TEST(AnalyzerTest, Tdx023GatedOnQueries) {
  // Without queries every terminal relation would be "write-only"; the
  // lint stays silent so query-less mappings do not drown in notes.
  const AnalysisReport report = LintText(R"(
    source A(x);
    target T(x);
    target L(x);
    tgd t1: A(x) -> T(x);
    tgd t2: A(x) -> L(x);
  )");
  EXPECT_FALSE(Has(report, "TDX023")) << RenderText(report, "t");
}

TEST(AnalyzerTest, Tdx024TargetTgdFeedsNoQuery) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    target T(x);
    target U(x);
    tgd s: A(x) -> T(x);
    ttgd t2: T(x) -> U(x);
    query q(x): T(x);
  )");
  const auto found = FindAll(report, "TDX024");
  ASSERT_EQ(found.size(), 1u) << RenderText(report, "t");
  EXPECT_EQ(found[0]->severity, Severity::kNote);
  EXPECT_NE(found[0]->message.find("'t2'"), std::string::npos);
  EXPECT_EQ(found[0]->span.line, 6u);
}

TEST(AnalyzerTest, Tdx024AbsentWhenDownstreamIsQueried) {
  const AnalysisReport report = LintText(R"(
    source A(x);
    target T(x);
    target U(x);
    tgd s: A(x) -> T(x);
    ttgd t2: T(x) -> U(x);
    query q(x): U(x);
  )");
  EXPECT_FALSE(Has(report, "TDX024")) << RenderText(report, "t");
}

// ---------------------------------------------------------------------------
// Rendering.

TEST(RenderTest, DiagnosticRendersClangStyle) {
  Diagnostic d;
  d.id = "TDX013";
  d.severity = Severity::kWarning;
  d.message = "relation 'X' is never used";
  d.span = SourceSpan{3, 5};
  d.hint = "delete it";
  EXPECT_EQ(RenderDiagnostic(d, "f.tdx"),
            "f.tdx:3:5: warning: relation 'X' is never used [TDX013]\n"
            "    hint: delete it\n");
}

TEST(RenderTest, TextSummaryCountsBySeverity) {
  AnalysisReport report;
  report.Add("TDX001", Severity::kError, "boom");
  report.Add("TDX013", Severity::kWarning, "dead");
  const std::string text = RenderText(report, "f.tdx");
  EXPECT_NE(text.find("1 error(s), 1 warning(s), 0 note(s)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("f.tdx: termination: no-target-tgds"),
            std::string::npos)
      << text;
}

TEST(RenderTest, JsonEscapesControlCharacters) {
  AnalysisReport report;
  report.Add("TDX013", Severity::kWarning, "a\"b\\c\nd\x01");
  const std::string json = RenderJson(report, "f\t.tdx").Dump();
  EXPECT_NE(json.find("\"file\":\"f\\t.tdx\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"message\":\"a\\\"b\\\\c\\nd\\u0001\""),
            std::string::npos)
      << json;
}

TEST(RenderTest, PromoteWarningsImplementsWerror) {
  AnalysisReport report;
  report.Add("TDX013", Severity::kWarning, "dead");
  EXPECT_FALSE(report.HasErrors());
  report.PromoteWarnings();
  EXPECT_TRUE(report.HasErrors());
}

}  // namespace
}  // namespace tdx
