// tdx_bench_diff: merge google-benchmark JSON reports and check them
// against a perf-regression gates config. This is the single gate CI's
// bench-smoke job calls (replacing the inline python/awk checks it used to
// carry); the committed baseline is BENCH_chase.json and the CI gate
// config is bench/bench_gates.json.
//
//   tdx_bench_diff merge --out=FILE in1.json in2.json ...
//       Concatenate the reports' benchmark arrays under the first report's
//       context (minus "date") and write the result to FILE ("-" = stdout).
//
//   tdx_bench_diff check --fresh=FILE --gates=FILE [--baseline=FILE]
//                        [--json-out=FILE]
//       Evaluate the gates against the fresh report (and baseline, for
//       ratio drift bounds). Prints the text verdict to stdout;
//       --json-out additionally writes the machine-readable verdict.
//
// Exit codes: 0 all gates pass; 1 at least one gate failed; 2 usage, I/O,
// or parse error. A missing benchmark/counter that a gate references is an
// error (exit 2), not a silent pass — a renamed benchmark must not turn
// the gate off.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/bench_diff.h"
#include "src/obs/json.h"

namespace {

constexpr int kExitPass = 0;
constexpr int kExitFail = 1;
constexpr int kExitUsage = 2;

int Usage() {
  std::cerr
      << "usage:\n"
         "  tdx_bench_diff merge --out=FILE in1.json in2.json ...\n"
         "  tdx_bench_diff check --fresh=FILE --gates=FILE\n"
         "                       [--baseline=FILE] [--json-out=FILE]\n"
         "merge concatenates google-benchmark reports under the first\n"
         "report's context (dropping its date); check evaluates a gates\n"
         "config (see bench/bench_gates.json) against the fresh report.\n"
         "exit codes: 0 gates pass, 1 gate failure, 2 usage/io/parse error\n";
  return kExitUsage;
}

bool ReadWholeFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot open '" << path << "'\n";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool ParseFile(const std::string& path, tdx::obs::Json* out) {
  std::string text;
  if (!ReadWholeFile(path, &text)) return false;
  auto parsed = tdx::obs::ParseJson(text);
  if (!parsed.ok()) {
    std::cerr << path << ": " << parsed.status() << "\n";
    return false;
  }
  *out = std::move(*parsed);
  return true;
}

bool WriteWholeFile(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::cout << text;
    return static_cast<bool>(std::cout);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.flush();
  if (!out) {
    std::cerr << "cannot write '" << path << "'\n";
    return false;
  }
  return true;
}

int RunMerge(const std::vector<std::string>& args) {
  std::string out_path;
  std::vector<std::string> inputs;
  for (const std::string& arg : args) {
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown merge flag '" << arg << "'\n";
      return Usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (out_path.empty() || inputs.empty()) return Usage();
  std::vector<tdx::obs::Json> reports;
  reports.reserve(inputs.size());
  for (const std::string& path : inputs) {
    tdx::obs::Json report;
    if (!ParseFile(path, &report)) return kExitUsage;
    reports.push_back(std::move(report));
  }
  auto merged = tdx::obs::MergeBenchReports(reports);
  if (!merged.ok()) {
    std::cerr << merged.status() << "\n";
    return kExitUsage;
  }
  if (!WriteWholeFile(out_path, merged->Dump(2) + "\n")) return kExitUsage;
  return kExitPass;
}

int RunCheck(const std::vector<std::string>& args) {
  std::string fresh_path, gates_path, baseline_path, json_out;
  for (const std::string& arg : args) {
    if (arg.rfind("--fresh=", 0) == 0) {
      fresh_path = arg.substr(8);
    } else if (arg.rfind("--gates=", 0) == 0) {
      gates_path = arg.substr(8);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_out = arg.substr(11);
    } else {
      std::cerr << "unknown check argument '" << arg << "'\n";
      return Usage();
    }
  }
  if (fresh_path.empty() || gates_path.empty()) return Usage();
  tdx::obs::Json fresh, gates, baseline;
  if (!ParseFile(fresh_path, &fresh)) return kExitUsage;
  if (!ParseFile(gates_path, &gates)) return kExitUsage;
  const tdx::obs::Json* baseline_ptr = nullptr;
  if (!baseline_path.empty()) {
    if (!ParseFile(baseline_path, &baseline)) return kExitUsage;
    baseline_ptr = &baseline;
  }
  auto report = tdx::obs::CheckBenchGates(fresh, baseline_ptr, gates);
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return kExitUsage;
  }
  std::cout << report->ToText();
  if (!json_out.empty() &&
      !WriteWholeFile(json_out, report->ToJson() + "\n")) {
    return kExitUsage;
  }
  return report->pass ? kExitPass : kExitFail;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string_view command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "merge") return RunMerge(args);
  if (command == "check") return RunCheck(args);
  return Usage();
}
