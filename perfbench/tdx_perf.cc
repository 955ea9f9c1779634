// Helper binary of the end-to-end benchmark (perfbench/run.py drives it).
//
//   tdx_perf gen <workload> <seed> <out.tdx>
//       write the workload's program; print its size, the compiler, the
//       query name and the query-at points
//   tdx_perf reference <workload> <seed> <file> <jobs> <outdir> [--check]
//       write the stdout of chase / query / query-at, computed in-process,
//       to <outdir>/{chase,query,query_at}.out; with --check, also print the
//       checks on that chase result and the seconds they took: it satisfies
//       the mapping (CheckSolution), and a reduced-size program from the
//       same seed passes Corollary 20 against the abstract chase
//   tdx_perf profile <workload> <file> <jobs> <seconds>
//       alternate untraced and traced in-process runs of the three commands
//       for <seconds>; print one JSON line of per-layer values per repetition
//
// Every command prints one JSON object per line on stdout and exits 1 on an
// error, with the reason on stderr.

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/pipeline.h"
#include "perfbench/programs.h"
#include "src/core/align.h"
#include "src/core/satisfaction.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace tdx::perf {
namespace {

using obs::Json;
using Clock = std::chrono::steady_clock;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.flush();
  if (!out) return Status::Internal("cannot write '" + path + "'");
  return Status::OK();
}

Result<std::uint64_t> ParseUint(const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || text.empty()) {
    return Status::InvalidArgument("expected a non-negative integer, got '" +
                                   text + "'");
  }
  return value;
}

Status Gen(const std::string& workload, std::uint64_t seed,
           const std::string& out) {
  TDX_ASSIGN_OR_RETURN(WorkloadShape shape, ShapeOf(workload));
  TDX_ASSIGN_OR_RETURN(std::string text,
                       GenerateProgram(workload, seed, false));
  TDX_RETURN_IF_ERROR(WriteFile(out, text));
  Json points = Json::Array();
  for (TimePoint p : shape.points) points.Append(Json::Uint(p));
  Json result = Json::Object();
  result.Set("bytes", Json::Uint(text.size()));
  result.Set("compiler", Json::Str(kCompiler));
  result.Set("query", Json::Str(shape.query));
  result.Set("points", std::move(points));
  std::cout << result.Dump() << "\n";
  return Status::OK();
}

// The output checks on the reference chase result.
Result<Json> Check(const std::string& workload, std::uint64_t seed,
                   const ChaseRun& chase) {
  Json checks = Json::Object();
  ParsedProgram& program = *chase.program;
  TDX_ASSIGN_OR_RETURN(SatisfactionReport sat,
                       CheckSolution(program.source, chase.outcome.target,
                                     program.mapping, &program.universe));
  if (!sat.satisfied) std::cerr << "violation: " << sat.violation << "\n";
  checks.Set("solution_satisfies_mapping", Json::Bool(sat.satisfied));

  TDX_ASSIGN_OR_RETURN(std::string reduced,
                       GenerateProgram(workload, seed, true));
  TDX_ASSIGN_OR_RETURN(std::unique_ptr<ParsedProgram> small,
                       ParseProgram(reduced));
  TDX_ASSIGN_OR_RETURN(AlignmentReport aligned,
                       VerifyCorollary20(small->source, small->mapping,
                                         small->lifted, &small->universe));
  checks.Set("reduced_corollary20_aligned",
             Json::Bool(aligned.aligned() && aligned.forward_checked));
  return checks;
}

Status Reference(const std::string& workload, std::uint64_t seed,
                 const std::string& file, unsigned jobs,
                 const std::string& outdir, bool check) {
  TDX_ASSIGN_OR_RETURN(WorkloadShape shape, ShapeOf(workload));
  TDX_ASSIGN_OR_RETURN(ChaseRun chase, RunChaseCommand(file));
  TDX_RETURN_IF_ERROR(WriteFile(outdir + "/chase.out", chase.output));
  TDX_ASSIGN_OR_RETURN(QueryRun query, RunQueryCommand(file, shape.query));
  TDX_RETURN_IF_ERROR(WriteFile(outdir + "/query.out", query.output));
  TDX_ASSIGN_OR_RETURN(QueryRun query_at, RunQueryAtCommand(file, shape.query,
                                                            shape.points, jobs));
  TDX_RETURN_IF_ERROR(WriteFile(outdir + "/query_at.out", query_at.output));

  Json result = Json::Object();
  if (check) {
    const Clock::time_point start = Clock::now();
    TDX_ASSIGN_OR_RETURN(Json checks, Check(workload, seed, chase));
    result.Set("checks", std::move(checks));
    result.Set("checks_s", Json::Number(SecondsSince(start)));
  }
  std::cout << result.Dump() << "\n";
  return Status::OK();
}

// One traced command: a fresh tracer and zeroed metrics around `run`.
struct Traced {
  double wall_s = 0;
  SpanTable spans;
  obs::MetricsSnapshot metrics;
};

Result<Traced> RunTraced(const std::function<Status()>& run) {
  obs::MetricsRegistry::Instance().Reset();
  obs::Tracer tracer;
  Traced traced;
  {
    obs::ScopedTracer installed(&tracer);
    const Clock::time_point start = Clock::now();
    TDX_RETURN_IF_ERROR(run());
    traced.wall_s = SecondsSince(start);
  }
  traced.metrics = obs::MetricsRegistry::Instance().Snapshot();
  TDX_ASSIGN_OR_RETURN(std::vector<Span> spans,
                       ParseChromeTrace(tracer.ToChromeTraceJson()));
  traced.spans = AggregateSpans(std::move(spans));
  return traced;
}

double Count(const obs::MetricsSnapshot& snapshot, std::string_view name) {
  const obs::MetricValue* m = snapshot.Find(name);
  return m == nullptr ? 0.0 : static_cast<double>(m->value);
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// The per-layer values of one traced cycle; see perfbench/README.md for
// which end-to-end metric each should move.
Json LayerValues(const ChaseRun& chase, const Traced& c, const QueryRun& query,
                 const Traced& q, const Traced& qa, unsigned jobs) {
  Json v = Json::Object();
  const auto set = [&v](const char* name, double value) {
    v.Set(name, Json::Number(value));
  };
  const double parse_s = SelfSeconds(c.spans, "perf.parse");
  set("parser.parse_s", parse_s);
  set("parser.input_mb_per_s", Ratio(chase.input_bytes / 1e6, parse_s));
  set("printer.render_s", SelfSeconds(c.spans, "perf.render"));
  set("printer.output_bytes", static_cast<double>(chase.output.size()));
  set("analysis.lint_s", SelfSeconds(c.spans, "perf.analyze"));
  set("analysis.plan_s", TotalSeconds(c.spans, "planner.plan_chase"));
  set("analysis.plans_per_run", Count(c.metrics, "planner.plans"));

  // Engine stages are siblings under cchase.run; a stage's time includes
  // the spans it calls (normalize.incremental inside normalize_pass).
  set("cchase.run_s", TotalSeconds(c.spans, "cchase.run"));
  set("cchase.normalize_source_s",
      TotalSeconds(c.spans, "cchase.normalize_source"));
  set("cchase.st_tgd_s", TotalSeconds(c.spans, "cchase.st_tgd"));
  set("cchase.tgd_round_s", TotalSeconds(c.spans, "cchase.tgd_round"));
  set("cchase.egd_fixpoint_s", TotalSeconds(c.spans, "cchase.egd_fixpoint"));
  set("cchase.normalize_pass_s",
      TotalSeconds(c.spans, "cchase.normalize_pass"));
  set("cchase.rounds", Count(c.metrics, "cchase.rounds"));
  const double triggers = Count(c.metrics, "cchase.tgd_triggers");
  const double fires = Count(c.metrics, "cchase.tgd_fires");
  set("cchase.tgd_triggers", triggers);
  set("cchase.tgd_fires", fires);
  set("cchase.fire_ratio", Ratio(fires, triggers));
  set("cchase.egd_steps", Count(c.metrics, "cchase.egd_steps"));
  set("cchase.fresh_nulls", Count(c.metrics, "cchase.fresh_nulls"));
  set("cchase.values_rewritten", Count(c.metrics, "cchase.values_rewritten"));
  set("cchase.skipped_normalize_passes",
      Count(c.metrics, "cchase.skipped_normalize_passes"));

  // Cumulative registry counters: CChaseOutcome::target_norm_stats holds
  // only the last pass.
  const double passes = Count(c.metrics, "normalize.incremental.passes");
  const double full = Count(c.metrics, "normalize.incremental.full_passes");
  const double reused =
      Count(c.metrics, "normalize.incremental.reused_components");
  const double dirty =
      Count(c.metrics, "normalize.incremental.dirty_components");
  set("normalize.passes", passes);
  set("normalize.full_passes", full);
  set("normalize.full_pass_ratio", Ratio(full, passes));
  set("normalize.homomorphisms",
      Count(c.metrics, "normalize.incremental.homomorphisms"));
  set("normalize.delta_facts",
      Count(c.metrics, "normalize.incremental.delta_facts"));
  set("normalize.reuse_ratio", Ratio(reused, reused + dirty));

  const IndexStats& search = chase.outcome.stats.search;
  set("relational.index_probes", static_cast<double>(search.index_probes));
  set("relational.candidates_per_probe",
      Ratio(static_cast<double>(search.index_candidates),
            static_cast<double>(search.index_probes)));
  set("relational.full_scans", static_cast<double>(search.full_scans));

  set("query.eval_s", SelfSeconds(q.spans, "perf.certain"));
  set("query.answers", static_cast<double>(query.answers));

  const double chase_s = TotalSeconds(qa.spans, "snapshot.run");
  const double parallel_s = TotalSeconds(qa.spans, "thread_pool.parallel_for");
  set("snapshot.certain_many_s", SelfSeconds(qa.spans, "perf.certain_many"));
  set("snapshot.chase_s", chase_s);
  set("snapshot.parallel_efficiency", Ratio(chase_s, parallel_s * jobs));
  set("thread_pool.parallel_for_s", parallel_s);
  return v;
}

Status Profile(const std::string& workload, const std::string& file,
               unsigned jobs, double seconds) {
  TDX_ASSIGN_OR_RETURN(WorkloadShape shape, ShapeOf(workload));
  std::optional<ChaseRun> chase;
  QueryRun query, query_at;
  const std::function<Status()> commands[3] = {
      [&]() -> Status {
        TDX_ASSIGN_OR_RETURN(ChaseRun run, RunChaseCommand(file));
        chase.emplace(std::move(run));
        return Status::OK();
      },
      [&]() -> Status {
        TDX_ASSIGN_OR_RETURN(query, RunQueryCommand(file, shape.query));
        return Status::OK();
      },
      [&]() -> Status {
        TDX_ASSIGN_OR_RETURN(query_at, RunQueryAtCommand(file, shape.query,
                                                         shape.points, jobs));
        return Status::OK();
      },
  };
  // An untraced cycle returns its wall time and the chase command's.
  const auto untraced_cycle = [&]() -> Result<std::pair<double, double>> {
    const Clock::time_point start = Clock::now();
    TDX_RETURN_IF_ERROR(commands[0]());
    const double chase_s = SecondsSince(start);
    TDX_RETURN_IF_ERROR(commands[1]());
    TDX_RETURN_IF_ERROR(commands[2]());
    return std::make_pair(SecondsSince(start), chase_s);
  };
  const auto traced_cycle = [&](Traced* traced) -> Status {
    for (int i = 0; i < 3; ++i) {
      TDX_ASSIGN_OR_RETURN(traced[i], RunTraced(commands[i]));
    }
    return Status::OK();
  };

  // The first cycle in a process pays for first-touch allocation; drop it.
  TDX_RETURN_IF_ERROR(untraced_cycle().status());
  const Clock::time_point start = Clock::now();
  for (std::size_t rep = 0; rep == 0 || SecondsSince(start) < seconds; ++rep) {
    // Alternate which side runs first so drift cancels in the ratio. Both
    // sides compute identical results.
    Traced traced[3];
    if (rep % 2 == 1) TDX_RETURN_IF_ERROR(traced_cycle(traced));
    TDX_ASSIGN_OR_RETURN(auto untraced, untraced_cycle());
    if (rep % 2 == 0) TDX_RETURN_IF_ERROR(traced_cycle(traced));

    const double traced_s =
        traced[0].wall_s + traced[1].wall_s + traced[2].wall_s;
    Json layers =
        LayerValues(*chase, traced[0], query, traced[1], traced[2], jobs);
    layers.Set("trace.overhead_ratio",
               Json::Number(Ratio(traced_s, untraced.first)));
    Json line = Json::Object();
    line.Set("untraced_chase_s", Json::Number(untraced.second));
    line.Set("layers", std::move(layers));
    std::cout << line.Dump() << "\n";
  }
  return Status::OK();
}

int Usage() {
  std::cerr << "usage: tdx_perf gen <workload> <seed> <out.tdx>\n"
               "       tdx_perf reference <workload> <seed> <file> <jobs> "
               "<outdir> [--check]\n"
               "       tdx_perf profile <workload> <file> <jobs> <seconds>\n";
  return 2;
}

}  // namespace
}  // namespace tdx::perf

int main(int argc, char** argv) {
  using namespace tdx::perf;
  const std::vector<std::string> args(argv + 1, argv + argc);
  const std::string command = args.empty() ? "" : args[0];
  tdx::Status status;
  if (command == "gen" && args.size() == 4) {
    auto seed = ParseUint(args[2]);
    status = seed.ok() ? Gen(args[1], *seed, args[3]) : seed.status();
  } else if (command == "reference" &&
             (args.size() == 6 || (args.size() == 7 && args[6] == "--check"))) {
    auto seed = ParseUint(args[2]);
    auto jobs = ParseUint(args[4]);
    status = !seed.ok()   ? seed.status()
             : !jobs.ok() ? jobs.status()
                          : Reference(args[1], *seed, args[3],
                                      static_cast<unsigned>(*jobs), args[5],
                                      args.size() == 7);
  } else if (command == "profile" && args.size() == 5) {
    auto jobs = ParseUint(args[3]);
    auto seconds = ParseUint(args[4]);
    status = !jobs.ok()      ? jobs.status()
             : !seconds.ok() ? seconds.status()
                             : Profile(args[1], args[2],
                                       static_cast<unsigned>(*jobs),
                                       static_cast<double>(*seconds));
  } else {
    return Usage();
  }
  if (!status.ok()) {
    std::cerr << "tdx_perf: " << status << "\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
