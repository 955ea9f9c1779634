// Seeded `.tdx` programs for the end-to-end benchmark.
//
// Each workload is built by a src/gen generator, written out through the
// public serializers (SerializeSchema / SerializeMapping /
// SerializeInstanceFacts) and closed with the workload's query, so tdx_cli
// sees nothing but the generated file. The seed drives the employment
// histories and, for every workload, the order of the `fact` statements;
// the same (workload, seed, scale) always yields the same bytes.

#ifndef TDX_PERFBENCH_PROGRAMS_H_
#define TDX_PERFBENCH_PROGRAMS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/interval.h"
#include "src/common/status.h"

namespace tdx::perf {

/// What the driver needs to invoke a workload's commands.
struct WorkloadShape {
  std::string query;                ///< name of the appended query
  std::vector<TimePoint> points;    ///< the 32 fixed query-at points
};

/// The benchmark's workloads, in driver order.
const std::vector<std::string>& WorkloadNames();

/// Shape of a workload at full scale; NotFound for an unknown name.
Result<WorkloadShape> ShapeOf(std::string_view workload);

/// The full-size program, or the reduced-size one (same seed, small enough
/// for the abstract chase) when `reduced` is set.
Result<std::string> GenerateProgram(std::string_view workload,
                                    std::uint64_t seed, bool reduced);

}  // namespace tdx::perf

#endif  // TDX_PERFBENCH_PROGRAMS_H_
