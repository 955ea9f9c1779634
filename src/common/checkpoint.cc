#include "src/common/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/parser/serialize.h"

namespace tdx {

std::uint64_t FingerprintText(std::string_view text) {
  // FNV-1a, 64 bit.
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

struct CheckpointMetrics {
  obs::Counter offers{"checkpoint.offers"};
  obs::Counter throttled{"checkpoint.throttled"};
  obs::Counter writes{"checkpoint.writes"};
  obs::Counter write_errors{"checkpoint.write_errors"};
  obs::Counter loads{"checkpoint.loads"};
  obs::Histogram save_us{"checkpoint.save_us"};
};

CheckpointMetrics& GetCheckpointMetrics() {
  static auto* metrics = new CheckpointMetrics();
  return *metrics;
}

}  // namespace

bool Checkpointer::AtSafePoint(bool phase_boundary, const BuildFn& build) {
  CheckpointMetrics& metrics = GetCheckpointMetrics();
  metrics.offers.Inc();
  ++safe_points_;
  if (!phase_boundary) {
    ++round_points_;
    if (round_points_ % every_rounds_ != 0) return false;
  }
  const auto start = std::chrono::steady_clock::now();
  if (max_overhead_ > 0 && writes_ > 0) {
    // Keep (already spent) + (estimated next persist, proxied by the last
    // one) under the overhead budget of the run so far. The guarantee is
    // retrospective — everything spent fits the budget up to one stale
    // estimate's worth of overshoot.
    const std::chrono::duration<double, std::nano> budget =
        (start - created_) * max_overhead_;
    if (std::chrono::duration<double, std::nano>(total_cost_ + last_cost_) >
        budget) {
      metrics.throttled.Inc();
      return false;
    }
  }
  TDX_TRACE_SPAN("checkpoint.save");
  ChaseCheckpoint checkpoint = build();
  checkpoint.program_fingerprint = fingerprint_;
  if (!path_.empty()) {
    Status written =
        SaveChaseCheckpoint(checkpoint, *schema_, *universe_, path_);
    if (!written.ok()) {
      metrics.write_errors.Inc();
      if (last_error_.ok()) last_error_ = std::move(written);
      return false;
    }
  }
  if (keep_latest_) latest_ = std::move(checkpoint);
  ++writes_;
  metrics.writes.Inc();
  last_cost_ = std::chrono::steady_clock::now() - start;
  metrics.save_us.Record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(last_cost_)
          .count()));
  total_cost_ += last_cost_;
  return true;
}

Status SaveChaseCheckpoint(const ChaseCheckpoint& checkpoint,
                           const Schema& schema, const Universe& universe,
                           const std::string& path) {
  TDX_ASSIGN_OR_RETURN(std::string text,
                       SerializeCheckpoint(checkpoint, schema, universe));
  // Atomic replace: a kill mid-write leaves either the previous checkpoint
  // or the new one, never a torn file.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot open checkpoint temp file: " + tmp);
    }
    out << text;
    out.flush();
    if (!out) {
      return Status::Internal("short write to checkpoint temp file: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename checkpoint into place: " + path);
  }
  return Status::OK();
}

Result<ChaseCheckpoint> LoadChaseCheckpoint(const std::string& path,
                                            std::uint64_t program_fingerprint,
                                            const Schema* schema,
                                            Universe* universe) {
  TDX_TRACE_SPAN("checkpoint.load");
  GetCheckpointMetrics().loads.Inc();
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open checkpoint file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  TDX_ASSIGN_OR_RETURN(ChaseCheckpoint checkpoint,
                       ParseCheckpoint(buffer.str(), schema, universe));
  if (checkpoint.program_fingerprint != program_fingerprint) {
    return Status::InvalidArgument(
        "checkpoint was written for a different program (fingerprint "
        "mismatch)");
  }
  return checkpoint;
}

}  // namespace tdx
