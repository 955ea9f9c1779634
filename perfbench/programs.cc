#include "perfbench/programs.h"

#include <algorithm>
#include <memory>
#include <random>

#include "src/gen/workload.h"
#include "src/parser/serialize.h"

namespace tdx::perf {
namespace {

// Every query-at invocation asks for this many evenly spaced points.
constexpr std::size_t kQueryPoints = 32;

// Full-scale sizes. employment is the data-volume path (~3.8e4 source facts,
// a ~95 MB peak RSS, 5x cascade's); cascade is normalization-bound
// (egd rewrites force full passes). Sizes keep each command under ~1 s so a
// run collects enough samples of each. Every full-size file stays under the
// default ParseLimits, so tdx_cli runs on its defaults.
constexpr std::size_t kEmploymentPeople = 5000;
constexpr std::size_t kEmploymentCompanies = 50;
constexpr TimePoint kEmploymentHorizon = 1000;
constexpr std::size_t kCascadeStages = 100;
constexpr std::size_t kCascadeBallastKeys = 60;
constexpr std::size_t kCascadeBallastDup = 30;
// cascade facts are valid over [0, 32), so every query-at point is a
// distinct non-empty snapshot.
constexpr TimePoint kCascadeHorizon = 32;

std::unique_ptr<Workload> MakeEmployment(std::uint64_t seed, bool reduced) {
  EmploymentConfig cfg;
  cfg.num_people = reduced ? 12 : kEmploymentPeople;
  cfg.num_companies = reduced ? 3 : kEmploymentCompanies;
  cfg.horizon = reduced ? 24 : kEmploymentHorizon;
  cfg.seed = seed;
  return MakeEmploymentWorkload(cfg);
}

std::unique_ptr<Workload> MakeCascade(std::uint64_t, bool reduced) {
  CascadeConfig cfg;
  cfg.stages = reduced ? 5 : kCascadeStages;
  cfg.ballast_keys = reduced ? 3 : kCascadeBallastKeys;
  cfg.ballast_dup = reduced ? 3 : kCascadeBallastDup;
  cfg.horizon = reduced ? 6 : kCascadeHorizon;
  return MakeCascadeWorkload(cfg);
}

struct Spec {
  const char* name;
  const char* query;       ///< the query's name
  const char* query_text;  ///< its statement, appended to the program
  TimePoint point_span;    ///< query-at points spread over [0, point_span)
  std::unique_ptr<Workload> (*make)(std::uint64_t seed, bool reduced);
};

constexpr Spec kSpecs[] = {
    {"employment", "paid", "query paid(n, s): Emp(n, _, s);\n",
     kEmploymentHorizon, MakeEmployment},
    {"cascade", "reached", "query reached(x): Cur(x);\n", kCascadeHorizon,
     MakeCascade},
};

Result<const Spec*> Find(std::string_view workload) {
  for (const Spec& spec : kSpecs) {
    if (spec.name == workload) return &spec;
  }
  return Status::NotFound("unknown workload '" + std::string(workload) + "'");
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Spec& spec : kSpecs) out.emplace_back(spec.name);
    return out;
  }();
  return names;
}

Result<WorkloadShape> ShapeOf(std::string_view workload) {
  TDX_ASSIGN_OR_RETURN(const Spec* spec, Find(workload));
  WorkloadShape shape{spec->query, {}};
  for (std::size_t i = 0; i < kQueryPoints; ++i) {
    shape.points.push_back(i * spec->point_span / kQueryPoints);
  }
  return shape;
}

Result<std::string> GenerateProgram(std::string_view workload,
                                    std::uint64_t seed, bool reduced) {
  TDX_ASSIGN_OR_RETURN(const Spec* spec, Find(workload));
  const std::unique_ptr<Workload> made = spec->make(seed, reduced);
  const Workload& w = *made;
  TDX_ASSIGN_OR_RETURN(std::string facts,
                       SerializeInstanceFacts(w.source, w.universe));

  // One `fact` statement per line; a seeded permutation of them makes the
  // seed reach the seed-free generators too.
  std::vector<std::string_view> lines;
  for (std::size_t pos = 0; pos < facts.size();) {
    const std::size_t eol = facts.find('\n', pos);
    lines.emplace_back(facts.data() + pos, eol - pos + 1);
    pos = eol + 1;
  }
  std::mt19937_64 rng(seed);
  std::shuffle(lines.begin(), lines.end(), rng);

  std::string text = SerializeSchema(w.schema);
  text += SerializeMapping(w.mapping, w.schema, w.universe);
  for (std::string_view line : lines) text += line;
  text += spec->query_text;
  return text;
}

}  // namespace tdx::perf
