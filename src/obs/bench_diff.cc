#include "src/obs/bench_diff.h"

#include <cstdio>
#include <unordered_map>

namespace tdx::obs {

namespace {

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g", value);
  return buf;
}

/// A report's benchmark entries by name, and its coefficient-of-variation
/// aggregates by run name.
struct BenchIndex {
  std::unordered_map<std::string, const Json*> by_name;
  std::unordered_map<std::string, const Json*> cv;
};

/// Indexes a report's benchmark entries into `out`. Under repetitions
/// (google-benchmark's --benchmark_repetitions, with or without
/// --benchmark_report_aggregates_only) the "median" aggregate stands for
/// its run: it is indexed under its run_name ahead of that run's iteration
/// entries, and the "cv" aggregate goes to `out->cv`. Every other entry,
/// other aggregates included, is indexed under its own name; repeated
/// names keep the first occurrence. Out-parameter rather than
/// Result<map>: gcc 12's -Wfree-nonheap-object misfires on a variant
/// holding an unordered_map.
Status IndexBenchmarks(const Json& report, const char* which,
                       BenchIndex* out) {
  const Json* benchmarks = report.Find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    return Status::InvalidArgument(std::string(which) +
                                   " report has no \"benchmarks\" array");
  }
  // Which repetition aggregate, if any, `entry` is and the run it sums up.
  const auto aggregate_of = [](const Json& entry) -> std::string {
    const Json* aggregate = entry.Find("aggregate_name");
    const Json* run_name = entry.Find("run_name");
    if (aggregate == nullptr || !aggregate->is_string() ||
        run_name == nullptr || !run_name->is_string()) {
      return "";
    }
    return aggregate->as_string();
  };
  for (const Json& entry : benchmarks->items()) {
    const Json* name = entry.Find("name");
    if (name == nullptr || !name->is_string()) {
      return Status::InvalidArgument(std::string(which) +
                                     " report has a benchmark with no name");
    }
    const std::string aggregate = aggregate_of(entry);
    if (aggregate == "median") {
      out->by_name.emplace(entry.Find("run_name")->as_string(), &entry);
    } else if (aggregate == "cv") {
      out->cv.emplace(entry.Find("run_name")->as_string(), &entry);
    }
  }
  for (const Json& entry : benchmarks->items()) {
    const std::string aggregate = aggregate_of(entry);
    if (aggregate == "median" || aggregate == "cv") continue;
    out->by_name.emplace(entry.Find("name")->as_string(), &entry);
  }
  return Status::OK();
}

/// " (cv num a, den b)" from the runs' "cv" aggregates (real_time is the
/// fraction); empty when neither run was repeated.
std::string CvNote(const BenchIndex& index, const std::string& num,
                   const std::string& den) {
  const auto cv = [&index](const std::string& run) -> std::string {
    auto it = index.cv.find(run);
    const Json* value =
        it == index.cv.end() ? nullptr : it->second->Find("real_time");
    if (value == nullptr || !value->is_number()) return "n/a";
    return FormatDouble(100 * value->as_number()) + "%";
  };
  if (index.cv.count(num) == 0 && index.cv.count(den) == 0) return "";
  return " (cv num " + cv(num) + ", den " + cv(den) + ")";
}

/// A benchmark's real_time, normalized to nanoseconds.
Result<double> RealTimeNs(const Json& entry, const std::string& name) {
  const Json* real_time = entry.Find("real_time");
  if (real_time == nullptr || !real_time->is_number()) {
    return Status::InvalidArgument("benchmark '" + name +
                                   "' has no real_time");
  }
  double scale = 1.0;
  if (const Json* unit = entry.Find("time_unit");
      unit != nullptr && unit->is_string()) {
    const std::string& u = unit->as_string();
    if (u == "us") {
      scale = 1e3;
    } else if (u == "ms") {
      scale = 1e6;
    } else if (u == "s") {
      scale = 1e9;
    }
  }
  return real_time->as_number() * scale;
}

Result<double> LookupTimeNs(
    const std::unordered_map<std::string, const Json*>& by_name,
    const std::string& name, const char* which) {
  auto it = by_name.find(name);
  if (it == by_name.end()) {
    return Status::NotFound("benchmark '" + name + "' missing from " +
                            which + " report");
  }
  return RealTimeNs(*it->second, name);
}

Result<std::string> ConfigString(const Json& gate, const char* key) {
  const Json* value = gate.Find(key);
  if (value == nullptr || !value->is_string()) {
    return Status::InvalidArgument(std::string("gate is missing string \"") +
                                   key + "\"");
  }
  return value->as_string();
}

}  // namespace

Result<Json> MergeBenchReports(const std::vector<Json>& reports) {
  if (reports.empty()) {
    return Status::InvalidArgument("merge needs at least one report");
  }
  const Json* context = reports[0].Find("context");
  if (context == nullptr || !context->is_object()) {
    return Status::InvalidArgument(
        "first report has no \"context\" object");
  }
  Json merged_context = Json::Object();
  for (const JsonMember& member : context->members()) {
    if (member.first == "date") continue;  // keep the merge reproducible
    merged_context.Set(member.first, member.second);
  }
  Json merged_benchmarks = Json::Array();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const Json* benchmarks = reports[i].Find("benchmarks");
    if (benchmarks == nullptr || !benchmarks->is_array()) {
      return Status::InvalidArgument("report " + std::to_string(i) +
                                     " has no \"benchmarks\" array");
    }
    for (const Json& entry : benchmarks->items()) {
      merged_benchmarks.Append(entry);
    }
  }
  Json merged = Json::Object();
  merged.Set("context", std::move(merged_context));
  merged.Set("benchmarks", std::move(merged_benchmarks));
  return merged;
}

Result<GateReport> CheckBenchGates(const Json& fresh, const Json* baseline,
                                   const Json& gates) {
  BenchIndex fresh_index;
  TDX_RETURN_IF_ERROR(IndexBenchmarks(fresh, "fresh", &fresh_index));
  const auto& fresh_by_name = fresh_index.by_name;
  BenchIndex baseline_index;
  if (baseline != nullptr) {
    TDX_RETURN_IF_ERROR(
        IndexBenchmarks(*baseline, "baseline", &baseline_index));
  }
  const auto& baseline_by_name = baseline_index.by_name;

  GateReport report;
  auto add = [&report](GateCheck check) {
    report.pass = report.pass && check.pass;
    report.checks.push_back(std::move(check));
  };

  // --- ratio gates --------------------------------------------------------
  if (const Json* ratio_gates = gates.Find("ratio_gates");
      ratio_gates != nullptr && ratio_gates->is_array()) {
    for (const Json& gate : ratio_gates->items()) {
      TDX_ASSIGN_OR_RETURN(const std::string name, ConfigString(gate, "name"));
      TDX_ASSIGN_OR_RETURN(const std::string num, ConfigString(gate, "num"));
      TDX_ASSIGN_OR_RETURN(const std::string den, ConfigString(gate, "den"));
      TDX_ASSIGN_OR_RETURN(const double num_ns,
                           LookupTimeNs(fresh_by_name, num, "fresh"));
      TDX_ASSIGN_OR_RETURN(const double den_ns,
                           LookupTimeNs(fresh_by_name, den, "fresh"));
      if (den_ns <= 0) {
        return Status::InvalidArgument("ratio gate '" + name +
                                       "': denominator time is zero");
      }
      const double ratio = num_ns / den_ns;
      const std::string cv_note = CvNote(fresh_index, num, den);

      if (const Json* min = gate.Find("min");
          min != nullptr && min->is_number()) {
        GateCheck check;
        check.gate = name;
        check.kind = "ratio";
        check.actual = ratio;
        check.limit = min->as_number();
        check.pass = ratio >= check.limit;
        check.detail = name + ": " + num + "/" + den + " = " +
                       FormatDouble(ratio) + "x (min " +
                       FormatDouble(check.limit) + "x)" + cv_note;
        add(std::move(check));
      }
      if (const Json* max = gate.Find("max");
          max != nullptr && max->is_number()) {
        GateCheck check;
        check.gate = name;
        check.kind = "ratio";
        check.actual = ratio;
        check.limit = max->as_number();
        check.pass = ratio <= check.limit;
        check.detail = name + ": " + num + "/" + den + " = " +
                       FormatDouble(ratio) + "x (max " +
                       FormatDouble(check.limit) + "x)" + cv_note;
        add(std::move(check));
      }

      // Drift against the baseline's value of the same ratio. Soft on a
      // missing baseline benchmark (a gate added in the same change as its
      // benchmarks has no committed history yet).
      const Json* drift = gate.Find("baseline_drift");
      if (drift != nullptr && drift->is_number() && baseline != nullptr) {
        auto base_num = LookupTimeNs(baseline_by_name, num, "baseline");
        auto base_den = LookupTimeNs(baseline_by_name, den, "baseline");
        if (base_num.ok() && base_den.ok() && base_den.value() > 0) {
          const double base_ratio = base_num.value() / base_den.value();
          GateCheck check;
          check.gate = name;
          check.kind = "ratio_drift";
          check.actual = ratio;
          check.limit = base_ratio / drift->as_number();
          check.pass = ratio * drift->as_number() >= base_ratio;
          check.detail = name + ": fresh " + FormatDouble(ratio) +
                         "x vs committed " + FormatDouble(base_ratio) +
                         "x (allowed drift " +
                         FormatDouble(drift->as_number()) + "x)";
          add(std::move(check));
        }
      }
    }
  }

  // --- counter gates ------------------------------------------------------
  if (const Json* counter_gates = gates.Find("counter_gates");
      counter_gates != nullptr && counter_gates->is_array()) {
    for (const Json& gate : counter_gates->items()) {
      TDX_ASSIGN_OR_RETURN(const std::string name, ConfigString(gate, "name"));
      TDX_ASSIGN_OR_RETURN(const std::string benchmark,
                           ConfigString(gate, "benchmark"));
      TDX_ASSIGN_OR_RETURN(const std::string counter,
                           ConfigString(gate, "counter"));
      const Json* min = gate.Find("min");
      const Json* max = gate.Find("max");
      const bool has_min = min != nullptr && min->is_number();
      const bool has_max = max != nullptr && max->is_number();
      if (!has_min && !has_max) {
        return Status::InvalidArgument("counter gate '" + name +
                                       "' has neither numeric \"min\" nor "
                                       "\"max\"");
      }
      auto it = fresh_by_name.find(benchmark);
      if (it == fresh_by_name.end()) {
        return Status::NotFound("counter gate '" + name + "': benchmark '" +
                                benchmark + "' missing from fresh report");
      }
      const Json* value = it->second->Find(counter);
      if (value == nullptr || !value->is_number()) {
        return Status::NotFound("counter gate '" + name + "': counter '" +
                                counter + "' missing from " + benchmark);
      }
      // With "relative_to", the gate bounds the counter's ratio to the same
      // counter on another benchmark (how a per-unit count grows with size).
      double actual = value->as_number();
      std::string measured = benchmark + "." + counter;
      if (const Json* rel = gate.Find("relative_to"); rel != nullptr) {
        if (!rel->is_string()) {
          return Status::InvalidArgument("counter gate '" + name +
                                         "': \"relative_to\" must be a "
                                         "benchmark name");
        }
        const std::string& den = rel->as_string();
        auto den_it = fresh_by_name.find(den);
        const Json* den_value = den_it == fresh_by_name.end()
                                    ? nullptr
                                    : den_it->second->Find(counter);
        if (den_value == nullptr || !den_value->is_number()) {
          return Status::NotFound("counter gate '" + name + "': counter '" +
                                  counter + "' missing from " + den);
        }
        if (den_value->as_number() == 0) {
          return Status::InvalidArgument("counter gate '" + name + "': " +
                                         den + "." + counter + " is zero");
        }
        actual /= den_value->as_number();
        measured += " / " + den + "." + counter;
      }
      const auto bound = [&](const char* which, double limit, bool pass) {
        GateCheck check;
        check.gate = name;
        check.kind = "counter";
        check.actual = actual;
        check.limit = limit;
        check.pass = pass;
        check.detail = name + ": " + measured + " = " +
                       FormatDouble(check.actual) + " (" + which + " " +
                       FormatDouble(limit) + ")";
        add(std::move(check));
      };
      if (has_min) bound("min", min->as_number(), actual >= min->as_number());
      if (has_max) bound("max", max->as_number(), actual <= max->as_number());
    }
  }

  return report;
}

std::string GateReport::ToJson() const {
  Json checks_json = Json::Array();
  for (const GateCheck& check : checks) {
    Json c = Json::Object();
    c.Set("gate", Json::Str(check.gate));
    c.Set("kind", Json::Str(check.kind));
    c.Set("pass", Json::Bool(check.pass));
    c.Set("actual", Json::Number(check.actual));
    c.Set("limit", Json::Number(check.limit));
    c.Set("detail", Json::Str(check.detail));
    checks_json.Append(std::move(c));
  }
  Json root = Json::Object();
  root.Set("pass", Json::Bool(pass));
  root.Set("checks", std::move(checks_json));
  return root.Dump(2);
}

std::string GateReport::ToText() const {
  std::string out;
  std::size_t failed = 0;
  for (const GateCheck& check : checks) {
    out += check.pass ? "PASS  " : "FAIL  ";
    out += check.detail;
    out += '\n';
    if (!check.pass) ++failed;
  }
  out += pass ? "OK: " : "REGRESSION: ";
  out += std::to_string(checks.size() - failed) + "/" +
         std::to_string(checks.size()) + " gates passed\n";
  return out;
}

}  // namespace tdx::obs
