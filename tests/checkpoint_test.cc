// Checkpoint/resume mechanics: the durable encoding round-trips every field
// (interval-annotated nulls included), the loader rejects anything it cannot
// trust (wrong program, wrong version, torn or tampered file, counts the
// text cannot hold), the cadence gates round-level safe points, the
// c-chase refuses checkpoints written under different execution options,
// and `tdx_cli resume` refuses a checkpoint of another program.
// The end-to-end kill/resume guarantees live in tests/chaos_resume_test.cc.

#include "src/common/checkpoint.h"

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "src/core/cchase.h"
#include "src/core/normalize_incremental.h"
#include "src/parser/parser.h"
#include "src/parser/serialize.h"
#include "tests/test_util.h"

namespace tdx {
namespace {

using ::tdx::testing::kPaperProgram;
using ::tdx::testing::ParseOrDie;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteAll(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

// Runs the paper's c-chase with an in-memory checkpointer at cadence 1 and
// returns the newest checkpoint (a real, resumable "loop-top" snapshot with
// annotated nulls in the target).
ChaseCheckpoint CaptureFromPaperRun(ParsedProgram* program) {
  Checkpointer checkpointer("", &program->schema, &program->universe);
  checkpointer.set_cadence(1);
  checkpointer.set_max_overhead(0);  // persist every safe point
  checkpointer.set_fingerprint(FingerprintText(kPaperProgram));
  CChaseOptions options;
  options.checkpointer = &checkpointer;
  auto outcome =
      CChase(program->source, program->lifted, &program->universe, options);
  EXPECT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(checkpointer.latest().has_value());
  return *checkpointer.latest();
}

TEST(FingerprintTest, DistinguishesTexts) {
  EXPECT_EQ(FingerprintText("abc"), FingerprintText("abc"));
  EXPECT_NE(FingerprintText("abc"), FingerprintText("abd"));
  EXPECT_NE(FingerprintText(""), FingerprintText(std::string_view("\0", 1)));
}

TEST(CheckpointRoundTripTest, SerializeParseIsIdentity) {
  auto program = ParseOrDie(kPaperProgram);
  const ChaseCheckpoint original = CaptureFromPaperRun(program.get());
  ASSERT_TRUE(original.target.has_value());

  auto text = SerializeCheckpoint(original, program->schema,
                                  program->universe);
  ASSERT_TRUE(text.ok()) << text.status();
  auto parsed = ParseCheckpoint(*text, &program->schema, &program->universe);
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  EXPECT_EQ(parsed->program_fingerprint, original.program_fingerprint);
  EXPECT_EQ(parsed->config, original.config);
  EXPECT_EQ(parsed->phase, original.phase);
  EXPECT_EQ(parsed->rounds, original.rounds);
  EXPECT_EQ(parsed->stats.tgd_fires, original.stats.tgd_fires);
  EXPECT_EQ(parsed->stats.fresh_nulls, original.stats.fresh_nulls);
  EXPECT_EQ(parsed->source_norm_stats.output_facts,
            original.source_norm_stats.output_facts);
  EXPECT_EQ(parsed->next_null, original.next_null);
  EXPECT_EQ(parsed->null_names, original.null_names);
  EXPECT_EQ(parsed->frontier_full, original.frontier_full);
  EXPECT_EQ(parsed->frontier_marks, original.frontier_marks);
  ASSERT_TRUE(parsed->target.has_value());
  EXPECT_EQ(parsed->target->size(), original.target->size());
  ASSERT_TRUE(parsed->normalized_source.has_value());
  EXPECT_EQ(parsed->normalized_source->size(),
            original.normalized_source->size());

  // Second serialization of the parse is byte-identical: the encoding is
  // canonical, so re-saving a loaded checkpoint never churns the file.
  auto text2 =
      SerializeCheckpoint(*parsed, program->schema, program->universe);
  ASSERT_TRUE(text2.ok()) << text2.status();
  EXPECT_EQ(*text, *text2);
}

TEST(CheckpointRoundTripTest, ConsumedLedgerRoundTrips) {
  auto program = ParseOrDie(kPaperProgram);
  ChaseCheckpoint ck = CaptureFromPaperRun(program.get());
  ck.consumed.elapsed = std::chrono::milliseconds(1234);

  auto text = SerializeCheckpoint(ck, program->schema, program->universe);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("\nconsumed 1234\n"), std::string::npos);
  auto parsed = ParseCheckpoint(*text, &program->schema, &program->universe);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->consumed.elapsed, std::chrono::milliseconds(1234));
}

// The line of `text` that starts with `head`, without its newline.
std::string LineStartingWith(const std::string& text, const std::string& head) {
  const std::size_t start = text.find("\n" + head);
  if (start == std::string::npos) return "";
  const std::size_t end = text.find('\n', start + 1);
  return text.substr(start + 1, end - start - 1);
}

TEST(CheckpointRoundTripTest, WorkRecordCountersRoundTrip) {
  // The counters v5 added: the budgeted fact count and the normalization
  // records' pass counts; and v6's: rows indexed and rows visited.
  auto program = ParseOrDie(kPaperProgram);
  ChaseCheckpoint ck = CaptureFromPaperRun(program.get());
  ck.stats.facts_inserted = 11;
  ck.stats.search.rows_indexed = 13;
  ck.source_norm_stats.rows_visited = 17;
  ck.target_norm_stats.rows_visited = 19;
  ck.source_norm_stats.passes = 1;
  ck.source_norm_stats.full_passes = 1;
  ck.target_norm_stats.passes = 7;
  ck.target_norm_stats.full_passes = 2;
  // Every other counter of the three records gets a value of its own, so
  // the v7 layout (v6's) below is pinned field by field.
  ck.stats.tgd_triggers = 101;
  ck.stats.tgd_fires = 102;
  ck.stats.egd_steps = 103;
  ck.stats.fresh_nulls = 104;
  ck.stats.values_rewritten = 105;
  ck.stats.schedule_strata = 106;  // derived on every run: not written
  ck.stats.skipped_egd_passes = 107;
  ck.stats.skipped_normalize_passes = 108;
  ck.stats.search.index_probes = 109;
  ck.stats.search.index_candidates = 110;
  ck.stats.search.full_scans = 111;
  ck.source_norm_stats.input_facts = 201;
  ck.source_norm_stats.output_facts = 202;
  ck.source_norm_stats.homomorphisms = 203;
  ck.source_norm_stats.groups = 204;
  ck.source_norm_stats.delta_facts = 205;
  ck.source_norm_stats.dirty_components = 206;
  ck.source_norm_stats.reused_components = 207;
  ck.source_norm_stats.partial = false;
  ck.target_norm_stats.input_facts = 301;
  ck.target_norm_stats.output_facts = 302;
  ck.target_norm_stats.homomorphisms = 303;
  ck.target_norm_stats.groups = 304;
  ck.target_norm_stats.delta_facts = 305;
  ck.target_norm_stats.dirty_components = 306;
  ck.target_norm_stats.reused_components = 307;
  ck.target_norm_stats.partial = true;

  auto text = SerializeCheckpoint(ck, program->schema, program->universe);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(LineStartingWith(*text, "stats "),
            "stats 101 102 103 104 11 105 107 108 109 110 111 13");
  EXPECT_EQ(LineStartingWith(*text, "norm-source "),
            "norm-source 201 202 203 204 205 206 207 17 1 1 0");
  EXPECT_EQ(LineStartingWith(*text, "norm-target "),
            "norm-target 301 302 303 304 305 306 307 19 7 2 1");
  auto parsed = ParseCheckpoint(*text, &program->schema, &program->universe);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->stats.facts_inserted, 11u);
  EXPECT_EQ(parsed->stats.search.rows_indexed, 13u);
  EXPECT_EQ(parsed->source_norm_stats.rows_visited, 17u);
  EXPECT_EQ(parsed->target_norm_stats.rows_visited, 19u);
  EXPECT_EQ(parsed->source_norm_stats.passes, 1u);
  EXPECT_EQ(parsed->source_norm_stats.full_passes, 1u);
  EXPECT_EQ(parsed->target_norm_stats.passes, 7u);
  EXPECT_EQ(parsed->target_norm_stats.full_passes, 2u);
  EXPECT_EQ(parsed->stats.schedule_strata, 0u);
  auto text2 = SerializeCheckpoint(*parsed, program->schema, program->universe);
  ASSERT_TRUE(text2.ok()) << text2.status();
  EXPECT_EQ(*text2, *text);
}

TEST(CheckpointRoundTripTest, ScheduleSkipCountersRoundTrip) {
  auto program = ParseOrDie(kPaperProgram);
  ChaseCheckpoint ck = CaptureFromPaperRun(program.get());
  ck.stats.skipped_egd_passes = 4;
  ck.stats.skipped_normalize_passes = 9;

  auto text = SerializeCheckpoint(ck, program->schema, program->universe);
  ASSERT_TRUE(text.ok()) << text.status();
  auto parsed = ParseCheckpoint(*text, &program->schema, &program->universe);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->stats.skipped_egd_passes, 4u);
  EXPECT_EQ(parsed->stats.skipped_normalize_passes, 9u);
}

// Re-signs `body` (everything before the end line) with a fresh checksum.
std::string Resign(const std::string& body) {
  char checksum[17];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(FingerprintText(body)));
  return body + "end " + checksum + "\n";
}

// Rewrites the checkpoint's stats line to its first `keep` fields and
// re-signs the checksum, imitating a file written by an older build.
std::string TruncateStatsLine(const std::string& text, int keep) {
  const std::size_t end_pos = text.rfind("\nend ");
  EXPECT_NE(end_pos, std::string::npos);
  std::string body = text.substr(0, end_pos + 1);
  const std::size_t line_start = body.find("\nstats ") + 1;
  EXPECT_NE(line_start, std::string::npos + 1);
  const std::size_t line_end = body.find('\n', line_start);
  std::istringstream fields(body.substr(line_start, line_end - line_start));
  std::string token, rebuilt;
  fields >> rebuilt;  // "stats"
  for (int i = 0; i < keep && (fields >> token); ++i) rebuilt += " " + token;
  body.replace(line_start, line_end - line_start, rebuilt);
  return Resign(body);
}

// The paper run's newest checkpoint with a watermark over the whole target,
// its first and last rows dirty.
ChaseCheckpoint CaptureWithDirtyRows(ParsedProgram* program) {
  ChaseCheckpoint ck = CaptureFromPaperRun(program);
  EXPECT_TRUE(ck.target.has_value());
  ck.norm_state_valid = true;
  ck.norm_marks.clear();
  ck.norm_dirty.clear();
  for (RelationId r = 0; r < program->schema.relation_count(); ++r) {
    const auto n = static_cast<std::uint32_t>(ck.target->facts(r).size());
    ck.norm_marks.push_back(n);
    if (n > 0 && ck.norm_dirty.empty()) {
      ck.norm_dirty.push_back({r, 0});
      if (n > 1) ck.norm_dirty.push_back({r, n - 1});
    }
  }
  EXPECT_FALSE(ck.norm_dirty.empty());
  ck.norm_labels.assign(ck.target->size(), NormalizeState::kUngrouped);
  ck.norm_components = 0;
  return ck;
}

TEST(CheckpointRoundTripTest, NormDirtyRowsRoundTripAndTornRowsAreRejected) {
  auto program = ParseOrDie(kPaperProgram);
  ChaseCheckpoint ck = CaptureWithDirtyRows(program.get());

  auto text = SerializeCheckpoint(ck, program->schema, program->universe);
  ASSERT_TRUE(text.ok()) << text.status();
  auto parsed = ParseCheckpoint(*text, &program->schema, &program->universe);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->norm_state_valid);
  EXPECT_EQ(parsed->norm_marks, ck.norm_marks);
  EXPECT_EQ(parsed->norm_dirty, ck.norm_dirty);

  // A dirty row at its relation's mark names no row of the previous output.
  ck.norm_dirty.back().pos = ck.norm_marks[ck.norm_dirty.back().rel];
  text = SerializeCheckpoint(ck, program->schema, program->universe);
  ASSERT_TRUE(text.ok()) << text.status();
  parsed = ParseCheckpoint(*text, &program->schema, &program->universe);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointRoundTripTest, FrontierRowsRoundTripAndTornRowsAreRejected) {
  auto program = ParseOrDie(kPaperProgram);
  ChaseCheckpoint ck = CaptureWithDirtyRows(program.get());
  ck.frontier_full = false;
  ck.frontier_marks = ck.norm_marks;
  ck.frontier_rows = ck.norm_dirty;
  ASSERT_GE(ck.frontier_rows.size(), 2u);
  const RelationId rel = ck.frontier_rows.front().rel;
  ck.round_warmth = {IndexWarmth{rel, 1, ck.norm_marks[rel]}};

  auto text = SerializeCheckpoint(ck, program->schema, program->universe);
  ASSERT_TRUE(text.ok()) << text.status();
  auto parsed = ParseCheckpoint(*text, &program->schema, &program->universe);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->frontier_rows, ck.frontier_rows);
  EXPECT_EQ(parsed->round_warmth, ck.round_warmth);

  const auto rejects = [&](const ChaseCheckpoint& torn) {
    auto torn_text =
        SerializeCheckpoint(torn, program->schema, program->universe);
    ASSERT_TRUE(torn_text.ok()) << torn_text.status();
    auto got = ParseCheckpoint(*torn_text, &program->schema,
                               &program->universe);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  };
  ChaseCheckpoint torn = ck;
  std::swap(torn.frontier_rows.front(), torn.frontier_rows.back());
  rejects(torn);  // unsorted
  torn = ck;
  torn.frontier_rows.back().pos = ck.norm_marks[torn.frontier_rows.back().rel];
  rejects(torn);  // past the relation's size
  torn = ck;
  torn.round_warmth.front().indexed += 1;
  rejects(torn);  // indexes rows the target lacks
  torn = ck;
  torn.round_warmth.front().mask = std::uint64_t{1} << 40;
  rejects(torn);  // a position past the relation's arity
}

TEST(CheckpointRoundTripTest, EarlierFormatLayoutsAreRejected) {
  // Each format version has one layout per line: the shorter stats lines
  // of earlier revisions, and any v1 to v6 header, are parse errors, not
  // crashes.
  auto program = ParseOrDie(kPaperProgram);
  const ChaseCheckpoint ck = CaptureFromPaperRun(program.get());
  auto text = SerializeCheckpoint(ck, program->schema, program->universe);
  ASSERT_TRUE(text.ok()) << text.status();

  for (int fields : {5, 7, 10, 11}) {
    auto parsed = ParseCheckpoint(TruncateStatsLine(*text, fields),
                                  &program->schema, &program->universe);
    ASSERT_FALSE(parsed.ok()) << fields << " fields";
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
    EXPECT_NE(parsed.status().message().find("stats"), std::string::npos);
  }

  ASSERT_EQ(text->rfind("tdxckpt v7\n", 0), 0u);
  for (const std::string version : {"v1", "v2", "v3", "v4", "v5", "v6"}) {
    std::string old =
        "tdxckpt " + version + "\n" + text->substr(text->find('\n') + 1);
    old = Resign(old.substr(0, old.rfind("\nend ") + 1));
    auto parsed = ParseCheckpoint(old, &program->schema, &program->universe);
    ASSERT_FALSE(parsed.ok()) << version;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
    EXPECT_NE(parsed.status().message().find(version), std::string::npos);
  }
}

TEST(CheckpointRoundTripTest, V6CheckpointOfTheOldFireOrderIsRefused) {
  // v6 has v7's line layout, but it was taken under declaration-order
  // st-tgds, so its nulls are not the ones this binary's run would mint.
  // A well-formed, correctly signed v6 file is refused, not resumed into a
  // solution that differs from the uninterrupted run's.
  auto program = ParseOrDie(kPaperProgram);
  const ChaseCheckpoint ck = CaptureFromPaperRun(program.get());
  auto text = SerializeCheckpoint(ck, program->schema, program->universe);
  ASSERT_TRUE(text.ok()) << text.status();
  std::string v6 = "tdxckpt v6\n" + text->substr(text->find('\n') + 1);
  v6 = Resign(v6.substr(0, v6.rfind("\nend ") + 1));
  auto parsed = ParseCheckpoint(v6, &program->schema, &program->universe);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("unsupported format version v6"),
            std::string::npos)
      << parsed.status();
  // The same body under the current header loads.
  EXPECT_TRUE(
      ParseCheckpoint(*text, &program->schema, &program->universe).ok());
}

TEST(CheckpointRoundTripTest, SixFieldStatsLineIsMalformed) {
  // A stats line short of its twelve fields is a torn write.
  auto program = ParseOrDie(kPaperProgram);
  const ChaseCheckpoint ck = CaptureFromPaperRun(program.get());
  auto text = SerializeCheckpoint(ck, program->schema, program->universe);
  ASSERT_TRUE(text.ok()) << text.status();

  auto parsed = ParseCheckpoint(TruncateStatsLine(*text, 6), &program->schema,
                                &program->universe);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("stats"), std::string::npos);
}

// `text` with the field after `head` on its line replaced by `field`,
// re-signed.
std::string WithField(const std::string& text, const std::string& head,
                      const std::string& field) {
  std::string body = text.substr(0, text.rfind("\nend ") + 1);
  const std::size_t start = body.find("\n" + head + " ");
  EXPECT_NE(start, std::string::npos) << head;
  const std::size_t begin = start + head.size() + 2;
  const std::size_t end = body.find_first_of(" \n", begin);
  body.replace(begin, end - begin, field);
  return Resign(body);
}

// A count the rest of the checkpoint cannot hold is malformed: the decoder
// must refuse it before sizing anything from it.
class CheckpointCountTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CheckpointCountTest, CountBeyondTheTextIsMalformed) {
  auto program = ParseOrDie(kPaperProgram);
  ChaseCheckpoint ck = CaptureWithDirtyRows(program.get());
  ck.frontier_full = false;
  ck.frontier_marks = {1, 2};
  ck.egd_frontier_full = false;
  ck.egd_frontier_marks = {1, 2};
  ck.round_warmth = {IndexWarmth{0, 1, 0}};
  auto text = SerializeCheckpoint(ck, program->schema, program->universe);
  ASSERT_TRUE(text.ok()) << text.status();
  auto honest = ParseCheckpoint(*text, &program->schema, &program->universe);
  ASSERT_TRUE(honest.ok()) << honest.status();

  for (const char* count : {"1000000000000000000", "18446744073709551615"}) {
    auto parsed = ParseCheckpoint(WithField(*text, GetParam(), count),
                                  &program->schema, &program->universe);
    ASSERT_FALSE(parsed.ok()) << count;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LineKinds, CheckpointCountTest,
    ::testing::Values("nulls", "frontier marks", "frontier-rows",
                      "egd-frontier marks", "norm-marks", "norm-labels",
                      "norm-dirty", "warmth-round"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (c == ' ' || c == '-') c = '_';
      }
      return name;
    });

TEST(CheckpointRoundTripTest, ElapsedBeyondSignedMillisecondsIsMalformed) {
  auto program = ParseOrDie(kPaperProgram);
  ChaseCheckpoint ck = CaptureFromPaperRun(program.get());
  ck.consumed = ResourceLedger{};
  auto text = SerializeCheckpoint(ck, program->schema, program->universe);
  ASSERT_TRUE(text.ok()) << text.status();
  // The elapsed time is the consumed line's only field.
  const auto with_elapsed = [&](const std::string& elapsed) {
    return WithField(*text, "consumed", elapsed);
  };
  auto largest = ParseCheckpoint(with_elapsed("9223372036854775807"),
                                 &program->schema, &program->universe);
  ASSERT_TRUE(largest.ok()) << largest.status();
  EXPECT_EQ(largest->consumed.elapsed, std::chrono::milliseconds::max());
  for (const char* elapsed : {"9223372036854775808", "9223372036854775809",
                              "18446744073709551615"}) {
    auto parsed = ParseCheckpoint(with_elapsed(elapsed), &program->schema,
                                  &program->universe);
    ASSERT_FALSE(parsed.ok()) << elapsed;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  }
}

TEST(CheckpointFileTest, SaveLoadRoundTrips) {
  auto program = ParseOrDie(kPaperProgram);
  const ChaseCheckpoint ck = CaptureFromPaperRun(program.get());
  const std::string path = TempPath("save_load.tdxckpt");

  ASSERT_TRUE(
      SaveChaseCheckpoint(ck, program->schema, program->universe, path).ok());
  auto loaded = LoadChaseCheckpoint(path, FingerprintText(kPaperProgram),
                                    &program->schema, &program->universe);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->phase, ck.phase);
  EXPECT_EQ(loaded->null_names, ck.null_names);
  std::remove(path.c_str());
}

// The paper program with one more source fact: it parses against the same
// schema, so only the fingerprint tells the two programs apart.
std::string EditedPaperProgram() {
  return std::string(kPaperProgram) +
         "fact E(\"Cy\", \"IBM\") @ [2016, 2017);\n";
}

TEST(CheckpointFileTest, RejectsDifferentProgram) {
  auto program = ParseOrDie(kPaperProgram);
  const ChaseCheckpoint ck = CaptureFromPaperRun(program.get());
  const std::string path = TempPath("wrong_program.tdxckpt");
  ASSERT_TRUE(
      SaveChaseCheckpoint(ck, program->schema, program->universe, path).ok());

  const std::string edited = EditedPaperProgram();
  auto edited_program = ParseOrDie(edited);
  auto loaded = LoadChaseCheckpoint(path, FingerprintText(edited),
                                    &edited_program->schema,
                                    &edited_program->universe);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("fingerprint mismatch"),
            std::string::npos)
      << loaded.status();

  // The program it was written for still loads it.
  auto same = LoadChaseCheckpoint(path, FingerprintText(kPaperProgram),
                                  &program->schema, &program->universe);
  EXPECT_TRUE(same.ok()) << same.status();
  std::remove(path.c_str());
}

// `tdx_cli resume` binds a checkpoint to the program text it was written
// under: the same file resumes to the uninterrupted run's table, an edited
// one exits 1 with the fingerprint mismatch.
TEST(CliResumeTest, RefusesAnEditedProgram) {
  const std::string program = TempPath("cli_resume.tdx");
  const std::string edited = TempPath("cli_resume_edited.tdx");
  const std::string checkpoint = TempPath("cli_resume.tdxckpt");
  WriteAll(program, std::string(kPaperProgram));
  WriteAll(edited, EditedPaperProgram());
  const std::string out = TempPath("cli_resume.out");
  const std::string err = TempPath("cli_resume.err");
  // Runs tdx_cli with `args`; returns its exit code, its stdout and stderr.
  const auto run = [&](const std::string& args) {
    const std::string shell = std::string("\"") + TDX_CLI + "\" " + args +
                              " > \"" + out + "\" 2> \"" + err + "\"";
    const int status = std::system(shell.c_str());
    return std::make_tuple(WIFEXITED(status) ? WEXITSTATUS(status) : -1,
                           ReadAll(out), ReadAll(err));
  };

  const auto [chase_code, chase_out, chase_err] =
      run("chase \"" + program + "\" --checkpoint=\"" + checkpoint +
          "\" --checkpoint-every=1");
  ASSERT_EQ(chase_code, 0) << chase_err;
  const auto [same_code, same_out, same_err] =
      run("resume \"" + program + "\" \"" + checkpoint + "\"");
  EXPECT_EQ(same_code, 0) << same_err;
  EXPECT_EQ(same_out, chase_out);
  const auto [edited_code, edited_out, edited_err] =
      run("resume \"" + edited + "\" \"" + checkpoint + "\"");
  EXPECT_EQ(edited_code, 1);
  EXPECT_NE(edited_err.find("fingerprint mismatch"), std::string::npos)
      << edited_err;
  for (const std::string& path : {program, edited, checkpoint, out, err}) {
    std::remove(path.c_str());
  }
}

TEST(CheckpointFileTest, RejectsMissingFile) {
  auto program = ParseOrDie(kPaperProgram);
  auto loaded = LoadChaseCheckpoint(TempPath("does_not_exist.tdxckpt"),
                                    FingerprintText(kPaperProgram),
                                    &program->schema, &program->universe);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointFileTest, RejectsTamperedFile) {
  auto program = ParseOrDie(kPaperProgram);
  const ChaseCheckpoint ck = CaptureFromPaperRun(program.get());
  const std::string path = TempPath("tampered.tdxckpt");
  ASSERT_TRUE(
      SaveChaseCheckpoint(ck, program->schema, program->universe, path).ok());

  std::string text = ReadAll(path);
  const std::size_t pos = text.find("rounds ");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 7] = '9';  // flip the round counter without fixing the checksum
  WriteAll(path, text);

  auto loaded = LoadChaseCheckpoint(path, FingerprintText(kPaperProgram),
                                    &program->schema, &program->universe);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, RejectsTruncatedFile) {
  auto program = ParseOrDie(kPaperProgram);
  const ChaseCheckpoint ck = CaptureFromPaperRun(program.get());
  const std::string path = TempPath("truncated.tdxckpt");
  ASSERT_TRUE(
      SaveChaseCheckpoint(ck, program->schema, program->universe, path).ok());

  std::string text = ReadAll(path);
  WriteAll(path, text.substr(0, text.size() / 2));
  auto loaded = LoadChaseCheckpoint(path, FingerprintText(kPaperProgram),
                                    &program->schema, &program->universe);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, RejectsUnknownVersion) {
  auto program = ParseOrDie(kPaperProgram);
  auto parsed = ParseCheckpoint("tdxckpt v99\nend 0000000000000000\n",
                                &program->schema, &program->universe);
  EXPECT_FALSE(parsed.ok());
}

TEST(CheckpointerTest, CadenceGatesRoundPointsNotBoundaries) {
  auto program = ParseOrDie(kPaperProgram);
  Checkpointer checkpointer("", &program->schema, &program->universe);
  checkpointer.set_cadence(3);
  checkpointer.set_max_overhead(0);

  auto build = [] { return ChaseCheckpoint(); };
  // Boundaries always persist.
  EXPECT_TRUE(checkpointer.AtSafePoint(true, build));
  // Round points persist on every 3rd offer only.
  EXPECT_FALSE(checkpointer.AtSafePoint(false, build));
  EXPECT_FALSE(checkpointer.AtSafePoint(false, build));
  EXPECT_TRUE(checkpointer.AtSafePoint(false, build));
  EXPECT_FALSE(checkpointer.AtSafePoint(false, build));
  EXPECT_EQ(checkpointer.safe_points(), 5u);
  EXPECT_EQ(checkpointer.writes(), 2u);
  EXPECT_TRUE(checkpointer.last_error().ok());
}

TEST(CheckpointerTest, WriteFailureIsRecordedNotFatal) {
  auto program = ParseOrDie(kPaperProgram);
  // A directory that does not exist: every write fails, the chase goes on.
  Checkpointer checkpointer(TempPath("no/such/dir/ck.tdxckpt"),
                            &program->schema, &program->universe);
  checkpointer.set_cadence(1);
  CChaseOptions options;
  options.checkpointer = &checkpointer;
  auto outcome =
      CChase(program->source, program->lifted, &program->universe, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->kind, ChaseResultKind::kSuccess);
  EXPECT_FALSE(checkpointer.last_error().ok());
  EXPECT_EQ(checkpointer.writes(), 0u);
}

TEST(CheckpointResumeValidationTest, RejectsDifferentExecutionOptions) {
  auto program = ParseOrDie(kPaperProgram);
  const ChaseCheckpoint ck = CaptureFromPaperRun(program.get());
  CChaseOptions options;
  options.semi_naive = false;  // checkpoint was taken under semi-naive
  options.resume_from = &ck;
  auto outcome =
      CChase(program->source, program->lifted, &program->universe, options);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointResumeValidationTest, RejectsUnknownPhase) {
  auto program = ParseOrDie(kPaperProgram);
  ChaseCheckpoint ck = CaptureFromPaperRun(program.get());
  ck.phase = "pieces";  // no c-chase safe point
  CChaseOptions options;
  options.resume_from = &ck;
  auto outcome =
      CChase(program->source, program->lifted, &program->universe, options);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tdx
