// tdx command-line interface.
//
// Reads a tdx program file (schemas, mapping, facts, queries — see
// src/parser/parser.h for the format) and runs one of:
//
//   tdx_cli chase <file>           c-chase; print the concrete solution
//   tdx_cli normalize <file>       print norm(Ic, lhs(Sigma_st)) and the
//                                  naive normalization side by side
//   tdx_cli abstract <file>        print the abstract view of the source
//   tdx_cli query <file> <name>    certain answers for the named query
//   tdx_cli verify <file>          check Corollary 20 on the instance
//   tdx_cli core <file>            c-chase, then the core of the solution
//   tdx_cli snapshots <file> <l..> print target snapshots at time points
//   tdx_cli emit <file>            re-emit the parsed program (round-trip)
//   tdx_cli possible <file> <q> <l> possible answers of query q at time l
//   tdx_cli query-at <file> <q> <l..> per-snapshot certain answers of q,
//                                  chasing the snapshots in parallel (--jobs)
//   tdx_cli resume <file> <ckpt>   continue a checkpointed c-chase run
//   tdx_cli plan <file>            print the chase schedule (strata, skipped
//                                  rules, graph edges)
//
// Resource-governance flags (any command; default unlimited):
//
//   --max-tgd-fires=N --max-egd-steps=N --max-fresh-nulls=N --max-facts=N
//   --max-fragments=N --deadline-ms=N
//   --max-input-bytes=N --max-tokens=N --max-nesting-depth=N
//
// Execution flags: --jobs=N (query-at's snapshot chases; 0 = all cores),
// --stats, --no-lint (skip the static-analysis warnings), and
// --format=text|json (plan command only). The engine's ablation switches
// are library options (ChaseOptions, CChaseOptions), not flags.
//
// Checkpointing (chase/core/resume): --checkpoint=PATH writes a resumable
// checkpoint at every phase boundary and every --checkpoint-every=N-th
// target-tgd round seam (default 16). `tdx_cli resume <file> <ckpt>`
// continues the run to the bit-identical result, charging any resource
// limits against the remaining (not a reset) budget. --inject-fault=SITE
// (optionally SITE@SKIP to let the first SKIP hits pass) arms a named
// fault site — see kRegisteredFaultSites — for the chaos harness.
//
// A chase that exhausts its budget prints "ABORTED (<dimension>): <reason>"
// and exits non-zero; the partial target is never printed as a solution.
//
// Exit codes: 0 success; 1 error (bad input, I/O, internal); 2 usage;
// 3 no solution exists (chase failure is an answer, not an error);
// 4 aborted (budget exhausted or injected fault; partial state only).

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/planner.h"
#include "src/common/checkpoint.h"
#include "src/common/resource.h"
#include "src/common/thread_pool.h"
#include "src/core/align.h"
#include "src/core/certain.h"
#include "src/core/naive_eval.h"
#include "src/core/normalize.h"
#include "src/core/possible.h"
#include "src/core/satisfaction.h"
#include "src/core/solution_core.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/parser/parser.h"
#include "src/parser/serialize.h"
#include "src/parser/printer.h"
#include "src/temporal/abstract_instance.h"
#include "src/temporal/snapshot.h"

namespace {

// Exit codes (documented in the file comment and README): distinguishing
// "no solution exists" and "aborted under budget" from plain errors lets
// the chaos harness and CI assert on the precise outcome.
constexpr int kExitSuccess = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitNoSolution = 3;
constexpr int kExitAborted = 4;

int Usage() {
  std::cerr
      << "usage: tdx_cli <command> <program-file> [args] [flags]\n"
         "commands:\n"
         "  chase      run the c-chase and print the concrete solution\n"
         "  normalize  print Algorithm-1 and naive normalizations\n"
         "  abstract   print the abstract view of the source\n"
         "  query      certain answers: tdx_cli query <file> <query-name>\n"
         "  verify     check Corollary 20 (c-chase vs abstract chase)\n"
         "  core       c-chase, then the core of the solution\n"
         "  snapshots  print target snapshots: tdx_cli snapshots <file> <l>...\n"
         "  emit       re-emit the parsed program in the text format\n"
         "  possible   possible answers: tdx_cli possible <file> <q> <l>\n"
         "  query-at   per-snapshot certain answers:\n"
         "             tdx_cli query-at <file> <query-name> <l>...\n"
         "  resume     continue a checkpointed c-chase:\n"
         "             tdx_cli resume <file> <checkpoint-file>\n"
         "  plan       print the chase schedule: strata, skipped rules,\n"
         "             and the dependency-graph edges\n"
         "flags (default unlimited):\n"
         "  --max-tgd-fires=N     abort the chase after N tgd firings\n"
         "  --max-egd-steps=N     abort after N egd applications\n"
         "  --max-fresh-nulls=N   abort after minting N labeled nulls\n"
         "  --max-facts=N         abort after tgd fires insert N facts\n"
         "                        (duplicates, fragments and egd merges\n"
         "                        do not count)\n"
         "  --max-fragments=N     abort a normalization pass at N fragments\n"
         "  --deadline-ms=N       abort any engine after N milliseconds\n"
         "  --max-input-bytes=N   reject program files larger than N bytes\n"
         "  --max-tokens=N        reject programs with more than N tokens\n"
         "  --max-nesting-depth=N reject atoms nested deeper than N\n"
         "  --no-lint             skip the static-analysis warnings pass\n"
         "  --jobs=N              worker threads for query-at's per-snapshot\n"
         "                        chases (0 = all hardware threads;\n"
         "                        default 1)\n"
         "  --stats               print chase statistics after chase/core\n"
         "  --format=FMT          plan output format: text (default) or json\n"
         "  --checkpoint=PATH     chase/core/resume: write a resumable\n"
         "                        checkpoint to PATH at every safe point\n"
         "  --checkpoint-every=N  persist every N-th round-level safe point\n"
         "                        (default 16; boundaries always persist)\n"
         "  --inject-fault=SITE[@SKIP]  arm a named fault site (chaos\n"
         "                        harness); SKIP hits pass before it fires\n"
         "  --trace-out=FILE      write a Chrome-trace JSON of the run\n"
         "                        (load in chrome://tracing or Perfetto)\n"
         "  --metrics-out=FILE    write the run's metrics snapshot as JSON\n"
         "exit codes: 0 success, 1 error, 2 usage, 3 no solution, 4 aborted\n";
  return kExitUsage;
}

struct CliOptions {
  tdx::ChaseLimits limits;
  tdx::ParseLimits parse_limits;
  bool lint = true;
  bool stats = false;
  std::string format = "text";
  unsigned jobs = 1;
  std::string checkpoint_path;
  std::size_t checkpoint_every = 16;
  std::string inject_fault;  // "site" or "site@skip"
  std::string trace_out;     // Chrome-trace JSON destination ("" = off)
  std::string metrics_out;   // metrics-snapshot JSON destination ("" = off)
  // Wired by main() after the program is parsed (the checkpointer needs the
  // parsed schema/universe); consumed by RunCChase.
  tdx::Checkpointer* checkpointer = nullptr;
  const tdx::ChaseCheckpoint* resume_from = nullptr;
};

bool ParseSize(std::string_view text, std::size_t* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

// Reads a time-point argument: a decimal numeral spanning the whole
// argument, below the kTimeInfinity sentinel (the parser's rule for
// interval endpoints). Prints a message naming the argument and returns
// false otherwise.
bool ParseTimePointArg(std::string_view text, tdx::TimePoint* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  const char* problem = nullptr;
  if (ec == std::errc::result_out_of_range) {
    problem = "is out of range";
  } else if (ec != std::errc() || ptr != end) {
    problem = "is not a decimal numeral";
  } else if (*out == tdx::kTimeInfinity) {
    problem = "is the infinity sentinel; time points must be finite";
  }
  if (problem == nullptr) return true;
  std::cerr << "time point '" << text << "' " << problem << "\n";
  return false;
}

// Consumes `--flag=N` arguments into `options`; everything else (command,
// file, positional args) is appended to `positional`. Returns false and
// prints a diagnostic on a malformed or unknown flag.
bool ParseFlags(int argc, char** argv, CliOptions* options,
                std::vector<std::string>* positional) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional->emplace_back(arg);
      continue;
    }
    if (arg == "--no-lint") {
      options->lint = false;
      continue;
    }
    if (arg == "--stats") {
      options->stats = true;
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      std::cerr << "flag '" << arg << "' expects --flag=N\n";
      return false;
    }
    const std::string_view name = arg.substr(0, eq);
    const std::string_view value = arg.substr(eq + 1);
    // String-valued flags come before the numeric conversion.
    if (name == "--checkpoint") {
      options->checkpoint_path = std::string(value);
      continue;
    }
    if (name == "--inject-fault") {
      options->inject_fault = std::string(value);
      continue;
    }
    if (name == "--trace-out") {
      options->trace_out = std::string(value);
      continue;
    }
    if (name == "--metrics-out") {
      options->metrics_out = std::string(value);
      continue;
    }
    if (name == "--format") {
      if (value != "text" && value != "json") {
        std::cerr << "--format expects 'text' or 'json', got '" << value
                  << "'\n";
        return false;
      }
      options->format = std::string(value);
      continue;
    }
    std::size_t n = 0;
    if (!ParseSize(value, &n)) {
      std::cerr << "flag '" << name << "' expects a non-negative integer, got '"
                << value << "'\n";
      return false;
    }
    if (name == "--max-tgd-fires") {
      options->limits.max_tgd_fires = n;
    } else if (name == "--max-egd-steps") {
      options->limits.max_egd_steps = n;
    } else if (name == "--max-fresh-nulls") {
      options->limits.max_fresh_nulls = n;
    } else if (name == "--max-facts") {
      options->limits.max_facts = n;
    } else if (name == "--max-fragments") {
      options->limits.max_normalize_fragments = n;
    } else if (name == "--deadline-ms") {
      const auto max_ms = std::chrono::milliseconds::max().count();
      if (n > static_cast<std::size_t>(max_ms)) {
        std::cerr << "flag '--deadline-ms' expects at most " << max_ms
                  << ", got '" << value << "'\n";
        return false;
      }
      options->limits.deadline = std::chrono::milliseconds(n);
    } else if (name == "--max-input-bytes") {
      options->parse_limits.max_input_bytes = n;
    } else if (name == "--max-tokens") {
      options->parse_limits.max_tokens = n;
    } else if (name == "--max-nesting-depth") {
      options->parse_limits.max_nesting_depth = n;
    } else if (name == "--jobs") {
      options->jobs = n == 0 ? tdx::HardwareJobs() : static_cast<unsigned>(n);
    } else if (name == "--checkpoint-every") {
      options->checkpoint_every = n;
    } else {
      std::cerr << "unknown flag '" << name << "'\n";
      return false;
    }
  }
  return true;
}

// Prints the structured abort line. The partial target is deliberately not
// rendered: an aborted chase never produced a solution.
int ReportAbort(tdx::ResourceDimension dimension, const std::string& reason) {
  std::cout << "ABORTED (" << tdx::ResourceDimensionToString(dimension)
            << "): " << reason << "\n";
  return kExitAborted;
}

// The one c-chase of every command that chases, and the one report of a
// chase without a solution: an error (exit 1), an abort (exit 4) or a
// failure (exit 3, unless `failure_is_answer`) is printed, *code set and
// nullopt returned. Otherwise the outcome is returned.
std::optional<tdx::CChaseOutcome> RunCChase(tdx::ParsedProgram& program,
                                            const CliOptions& options,
                                            int* code,
                                            bool failure_is_answer = false) {
  tdx::CChaseOptions chase_options;
  chase_options.limits = options.limits;
  chase_options.checkpointer = options.checkpointer;
  chase_options.resume_from = options.resume_from;
  auto chase = tdx::CChase(program.source, program.lifted, &program.universe,
                           chase_options);
  if (!chase.ok()) {
    std::cerr << chase.status() << "\n";
    *code = kExitError;
  } else if (chase->kind == tdx::ChaseResultKind::kAborted) {
    *code = ReportAbort(chase->abort_dimension, chase->abort_reason);
  } else if (chase->kind == tdx::ChaseResultKind::kFailure &&
             !failure_is_answer) {
    std::cout << "NO SOLUTION: " << chase->failure_reason << "\n";
    *code = kExitNoSolution;
  } else {
    return std::move(*chase);
  }
  return std::nullopt;
}

int RunChase(tdx::ParsedProgram& program, const CliOptions& options,
             bool with_core) {
  // Opened when printing starts, and closed only after every local below
  // is freed: the span names the command's teardown too.
  std::optional<tdx::obs::TraceSpan> print;
  int code = kExitSuccess;
  auto chase = RunCChase(program, options, &code);
  if (!chase.has_value()) return code;
  std::optional<tdx::ConcreteInstance> core;
  tdx::CoreStats core_stats;
  if (with_core) {
    TDX_TRACE_SPAN("core.search");
    core = tdx::ComputeConcreteCore(chase->target, &core_stats);
  }
  print.emplace("cli.print");
  if (core.has_value()) {
    std::cout << tdx::RenderConcreteInstance(*core, program.universe);
    std::cout << "(core: removed " << core_stats.facts_removed << " of "
              << chase->target.size() << " facts)\n";
  } else {
    std::cout << tdx::RenderConcreteInstance(chase->target, program.universe);
  }
  if (options.stats) std::cout << tdx::RenderChaseStats(*chase);
  return EXIT_SUCCESS;
}

// Per-snapshot certain answers for a batch of time points: one snapshot
// chase per piece of equal snapshots, fanned out over --jobs threads
// (core/certain.h).
int RunQueryAt(tdx::ParsedProgram& program, const CliOptions& options,
               const std::vector<std::string>& positional,
               const std::vector<tdx::TimePoint>& points) {
  std::optional<tdx::obs::TraceSpan> print;  // as in RunChase
  auto query = program.FindQuery(positional[2]);
  if (!query.ok()) {
    std::cerr << query.status() << "\n";
    return EXIT_FAILURE;
  }
  auto results = [&] {
    TDX_TRACE_SPAN("cli.query");
    return tdx::CertainAnswersAtMany(**query, program.source, program.mapping,
                                     points, &program.universe, options.jobs,
                                     options.limits);
  }();
  if (!results.ok()) {
    std::cerr << results.status() << "\n";
    return EXIT_FAILURE;
  }
  print.emplace("cli.print");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const tdx::CertainAnswersResult& result = (*results)[i];
    std::cout << "--- certain(" << positional[2] << ", db_" << points[i]
              << ") ---\n";
    if (result.chase_kind == tdx::ChaseResultKind::kAborted) {
      std::cout << "ABORTED: chase budget exhausted; answers are unknown\n";
      return kExitAborted;
    }
    if (result.chase_kind == tdx::ChaseResultKind::kFailure) {
      std::cout << "NO SOLUTION\n";
      continue;
    }
    std::cout << tdx::RenderAnswers(result.answers, program.universe);
  }
  return EXIT_SUCCESS;
}

int RunNormalize(tdx::ParsedProgram& program, const CliOptions& options) {
  tdx::ResourceGuard guard(options.limits);
  tdx::NormalizeStats alg, naive;
  const tdx::ConcreteInstance by_alg = tdx::Normalize(
      program.source, program.lifted.TgdBodies(), &alg, &guard);
  if (guard.tripped()) return ReportAbort(guard.dimension(), guard.reason());
  const tdx::ConcreteInstance by_naive =
      tdx::NaiveNormalize(program.source, &naive, &guard);
  if (guard.tripped()) return ReportAbort(guard.dimension(), guard.reason());
  std::cout << "--- norm(Ic, lhs(Sigma_st)), " << alg.output_facts
            << " facts ---\n"
            << tdx::RenderConcreteInstance(by_alg, program.universe)
            << "\n--- naive normalization, " << naive.output_facts
            << " facts ---\n"
            << tdx::RenderConcreteInstance(by_naive, program.universe);
  return EXIT_SUCCESS;
}

int RunAbstract(tdx::ParsedProgram& program) {
  std::optional<tdx::obs::TraceSpan> print;  // as in RunChase
  auto ia = tdx::AbstractInstance::FromConcrete(program.source);
  if (!ia.ok()) {
    std::cerr << ia.status() << "\n";
    return EXIT_FAILURE;
  }
  print.emplace("cli.print");
  std::cout << tdx::RenderAbstractInstance(*ia, program.universe);
  return EXIT_SUCCESS;
}

int RunQuery(tdx::ParsedProgram& program, const CliOptions& options,
             const std::string& name) {
  std::optional<tdx::obs::TraceSpan> print;  // as in RunChase
  auto query = program.FindQuery(name);
  if (!query.ok()) {
    std::cerr << query.status() << "\n";
    return EXIT_FAILURE;
  }
  auto lifted = tdx::LiftUnionQuery(**query, program.schema);
  if (!lifted.ok()) {
    std::cerr << lifted.status() << "\n";
    return EXIT_FAILURE;
  }
  auto result = [&] {
    TDX_TRACE_SPAN("cli.query");
    return tdx::CertainAnswers(*lifted, program.source, program.lifted,
                               &program.universe, options.limits);
  }();
  if (!result.ok()) {
    if (result.status().code() == tdx::StatusCode::kResourceExhausted ||
        result.status().code() == tdx::StatusCode::kDeadlineExceeded) {
      std::cout << "ABORTED: " << result.status().message() << "\n";
      return kExitAborted;
    }
    std::cerr << result.status() << "\n";
    return EXIT_FAILURE;
  }
  if (result->chase_kind == tdx::ChaseResultKind::kAborted) {
    std::cout << "ABORTED: chase budget exhausted; answers are unknown\n";
    return kExitAborted;
  }
  if (result->chase_kind == tdx::ChaseResultKind::kFailure) {
    std::cout << "NO SOLUTION\n";
    return kExitNoSolution;
  }
  print.emplace("cli.print");
  std::cout << tdx::RenderAnswers(result->answers, program.universe);
  return EXIT_SUCCESS;
}

// Corollary 20: the c-chase once, against the abstract chase under its limits.
int RunVerify(tdx::ParsedProgram& program, const CliOptions& options) {
  std::optional<tdx::obs::TraceSpan> print;  // as in RunChase
  int code = kExitSuccess;
  auto chase = RunCChase(program, options, &code, /*failure_is_answer=*/true);
  if (!chase.has_value()) return code;
  // Independent oracle first: the c-chase result must satisfy the mapping.
  std::string satisfies;  // the first report line, after a solution
  if (chase->kind == tdx::ChaseResultKind::kSuccess) {
    auto sat = [&] {
      TDX_TRACE_SPAN("verify.check_solution");
      return tdx::CheckSolution(program.source, chase->target, program.mapping,
                                &program.universe);
    }();
    if (!sat.ok()) {
      std::cerr << sat.status() << "\n";
      return EXIT_FAILURE;
    }
    satisfies = "target satisfies the mapping: " +
                (sat->satisfied ? "yes" : "NO (" + sat->violation + ")") + "\n";
  }
  auto report = tdx::CompareWithAbstractChase(
      *chase, program.source, program.mapping, &program.universe,
      {.limits = options.limits});
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return EXIT_FAILURE;
  }
  if (report->aborted()) {
    return ReportAbort(report->abort_dimension, report->abort_reason);
  }
  print.emplace("cli.print");
  std::cout << satisfies << "chase outcomes agree: "
            << (report->outcome_agreed ? "yes" : "NO") << "\n";
  if (report->forward_checked) {
    std::cout << "[[c-chase(Ic)]] -> chase([[Ic]]): "
              << (report->forward ? "yes" : "NO") << "\n"
              << "chase([[Ic]]) -> [[c-chase(Ic)]]: "
              << (report->backward ? "yes" : "NO") << "\n";
  }
  std::cout << (report->aligned() ? "ALIGNED (Corollary 20 verified)"
                                  : "MISALIGNED")
            << "\n";
  return report->aligned() ? EXIT_SUCCESS : EXIT_FAILURE;
}

int RunSnapshots(tdx::ParsedProgram& program, const CliOptions& options,
                 const std::vector<tdx::TimePoint>& points) {
  std::optional<tdx::obs::TraceSpan> print;  // as in RunChase
  int code = kExitSuccess;
  auto chase = RunCChase(program, options, &code);
  if (!chase.has_value()) return code;
  print.emplace("cli.print");
  for (const tdx::TimePoint l : points) {
    auto snapshot = tdx::SnapshotAt(chase->target, l, &program.universe);
    if (!snapshot.ok()) {
      std::cerr << snapshot.status() << "\n";
      return EXIT_FAILURE;
    }
    std::cout << "--- db_" << l << " ---\n"
              << tdx::RenderInstanceTables(*snapshot, program.universe);
  }
  return EXIT_SUCCESS;
}

// Possible answers of the named query at one time point of the solution.
int RunPossible(tdx::ParsedProgram& program, const CliOptions& options,
                const std::string& name, tdx::TimePoint l) {
  std::optional<tdx::obs::TraceSpan> print;  // as in RunChase
  int code = kExitSuccess;
  auto chase = RunCChase(program, options, &code);
  if (!chase.has_value()) return code;
  auto query = program.FindQuery(name);
  if (!query.ok()) {
    std::cerr << query.status() << "\n";
    return EXIT_FAILURE;
  }
  auto answers = [&] {
    TDX_TRACE_SPAN("possible.search");
    return tdx::PossibleAnswersAt(**query, chase->target, l, &program.universe);
  }();
  if (!answers.ok()) {
    std::cerr << answers.status() << "\n";
    return EXIT_FAILURE;
  }
  print.emplace("cli.print");
  std::cout << tdx::RenderAnswers(*answers, program.universe);
  return EXIT_SUCCESS;
}

// Renders the chase planner's schedule for the program's mapping.
int RunPlan(tdx::ParsedProgram& program, const CliOptions& options) {
  const tdx::ChaseSchedule schedule =
      tdx::ScheduleFor(program.mapping, program.schema);
  if (options.format == "json") {
    std::cout << schedule.ToJson().Dump() << "\n";
  } else {
    std::cout << schedule.ToText();
  }
  return EXIT_SUCCESS;
}

// The whole command pipeline — read, parse, lint, dispatch — so main() can
// wrap it in one root trace span and flush --trace-out/--metrics-out on
// every exit path (including usage errors and aborts).
int RunCli(CliOptions& options, const std::vector<std::string>& positional) {
  if (positional.size() < 2) return Usage();
  const std::string& command = positional[0];
  // Declared first, so that it closes after the program is freed.
  std::optional<tdx::obs::TraceSpan> teardown;

  // Time-point arguments are checked before the program is read.
  std::size_t first_point = positional.size();
  std::size_t end_point = positional.size();
  if (command == "snapshots") first_point = 2;
  if (command == "query-at") first_point = 3;
  if (command == "possible") {
    first_point = 3;
    end_point = std::min<std::size_t>(4, positional.size());
  }
  std::vector<tdx::TimePoint> points;
  for (std::size_t i = first_point; i < end_point; ++i) {
    if (!ParseTimePointArg(positional[i], &points.emplace_back())) {
      return kExitUsage;
    }
  }

  // Arm the chaos fault before anything that can hit a site (the parser
  // has one). "site" fires on the first hit; "site@K" lets K hits pass.
  if (!options.inject_fault.empty()) {
    std::string site = options.inject_fault;
    std::size_t skip = 0;
    const std::size_t at = site.find('@');
    if (at != std::string::npos) {
      if (!ParseSize(site.substr(at + 1), &skip)) {
        std::cerr << "--inject-fault expects SITE or SITE@SKIP, got '"
                  << options.inject_fault << "'\n";
        return Usage();
      }
      site.resize(at);
    }
    tdx::FaultRegistry::Arm(site, tdx::Status::Internal("injected fault"),
                            skip);
  }

  // The program text lives only as long as the parse: the parsed program
  // keeps no view into it, and only checkpointing and resume need its
  // fingerprint.
  std::uint64_t fingerprint = 0;
  auto parsed = [&]() -> tdx::Result<std::unique_ptr<tdx::ParsedProgram>> {
    tdx::obs::TraceSpan span("cli.parse");
    TDX_ASSIGN_OR_RETURN(const std::string text,
                         tdx::ReadProgramFile(positional[1]));
    if (!options.checkpoint_path.empty() || command == "resume") {
      fingerprint = tdx::FingerprintText(text);
    }
    auto program = tdx::ParseProgram(text, options.parse_limits);
    tdx::obs::ProbePeakRss(&span);
    return program;
  }();
  if (!parsed.ok()) {
    std::cerr << parsed.status() << "\n";
    return kExitError;
  }
  tdx::ParsedProgram& program = **parsed;

  // Checkpointing wiring for the chase-family commands. The checkpointer
  // lives here (not in CliOptions) because it borrows the parsed program's
  // schema and universe.
  tdx::Checkpointer checkpointer(options.checkpoint_path, &program.schema,
                                 &program.universe);
  checkpointer.set_cadence(options.checkpoint_every);
  if (!options.checkpoint_path.empty()) {
    checkpointer.set_fingerprint(fingerprint);
    options.checkpointer = &checkpointer;
  }

  // Advisory static-analysis pass: warnings and notes go to stderr so they
  // never corrupt command output; a parsed program cannot carry lint
  // *errors* (the parser already rejects those). Run tdx_lint for the full
  // report.
  if (options.lint) {
    TDX_TRACE_SPAN("cli.analyze");
    const tdx::AnalysisReport report = tdx::AnalyzeProgram(program);
    for (const tdx::Diagnostic& d : report.diagnostics) {
      std::cerr << tdx::RenderDiagnostic(d, positional[1]);
    }
  }

  const int code = [&]() -> int {
    if (command == "chase") return RunChase(program, options, false);
    if (command == "core") return RunChase(program, options, true);
    if (command == "resume") {
      if (positional.size() < 3) return Usage();
      auto checkpoint = tdx::LoadChaseCheckpoint(
          positional[2], fingerprint, &program.schema, &program.universe);
      if (!checkpoint.ok()) {
        std::cerr << checkpoint.status() << "\n";
        return kExitError;
      }
      options.resume_from = &*checkpoint;
      return RunChase(program, options, false);
    }
    if (command == "plan") return RunPlan(program, options);
    if (command == "normalize") return RunNormalize(program, options);
    if (command == "abstract") return RunAbstract(program);
    if (command == "verify") return RunVerify(program, options);
    if (command == "query") {
      if (positional.size() < 3) return Usage();
      return RunQuery(program, options, positional[2]);
    }
    if (command == "snapshots") return RunSnapshots(program, options, points);
    if (command == "query-at") {
      if (positional.size() < 4) return Usage();
      return RunQueryAt(program, options, positional, points);
    }
    if (command == "possible") {
      if (positional.size() < 4) return Usage();
      return RunPossible(program, options, positional[2], points[0]);
    }
    if (command == "emit") {
      auto emitted = tdx::SerializeProgram(program);
      if (!emitted.ok()) {
        std::cerr << emitted.status() << "\n";
        return EXIT_FAILURE;
      }
      std::cout << *emitted;
      return EXIT_SUCCESS;
    }
    return Usage();
  }();
  // Freeing the program is part of the run: named, like the rest of it.
  teardown.emplace("cli.teardown");
  return code;
}

// Writes `text` to `path`, demoting a success exit to kExitError on I/O
// failure — a run whose requested trace/metrics file is missing should not
// look green, but an already-failing run keeps its more specific code.
int WriteObsFile(const std::string& path, const std::string& text, int code) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.flush();
  if (!out) {
    std::cerr << "cannot write '" << path << "'\n";
    return code == kExitSuccess ? kExitError : code;
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  std::vector<std::string> positional;
  if (!ParseFlags(argc, argv, &options, &positional)) return Usage();

  // Install the tracer before any file I/O so the root span covers the
  // whole run (read + parse + command); export after RunCli returns, on
  // every exit path. MarkProcessStart additionally backdates the epoch to
  // process creation so the trace accounts for fork/exec/loader time.
  std::optional<tdx::obs::Tracer> tracer;
  if (!options.trace_out.empty()) {
    tracer.emplace();
    tracer->MarkProcessStart();
  }
  tdx::obs::SetPeakRssProbes(tracer.has_value() ||
                             !options.metrics_out.empty());
  int code;
  {
    std::optional<tdx::obs::ScopedTracer> installed;
    if (tracer.has_value()) installed.emplace(&*tracer);
    tdx::obs::TraceSpan span("cli.run");
    code = RunCli(options, positional);
    tdx::obs::ProbePeakRss(&span);
  }
  if (tracer.has_value()) {
    code = WriteObsFile(options.trace_out, tracer->ToChromeTraceJson(), code);
  }
  if (!options.metrics_out.empty()) {
    code = WriteObsFile(
        options.metrics_out,
        tdx::obs::MetricsRegistry::Instance().Snapshot().ToJson() + "\n",
        code);
  }
  return code;
}
