// Checkpoint/resume for the c-chase (core/cchase.h), the engine tdx runs on
// concrete instances and the only one that checkpoints.
//
// The c-chase is deterministic: tgds fire in a fixed order (full st-tgds
// before existential ones, otherwise declaration order) with triggers in
// canonical order, normalization and egd fixpoints are deterministic
// functions of the instance, and fresh nulls are minted from a counter. A
// checkpoint taken at a *safe point* — a phase boundary or the seam between
// two target-tgd rounds — therefore captures everything needed to continue
// the run to a bit-identical result: the target instance
// (including interval-annotated nulls, which the `fact` statement format
// deliberately rejects — the checkpoint has its own durable encoding in
// src/parser/serialize.h), the normalized source, the semi-naive
// DeltaFrontier, the phase and round cursors, the run's work record
// (ChaseStats and the normalization stats), the incremental normalizer's
// watermark, the Universe's labeled-null namespace, and the elapsed wall
// time. A resumed run admits further work against the restored record and
// the remaining deadline, not against a reset budget.
//
// What is NOT captured: derived state. HomomorphismFinder indexes are
// caches rebuilt on resume (only which masks were built, and over how many
// rows, is recorded, so the resumed run counts the same index work); the
// termination certificate is recomputed from the mapping; the symbol table
// is reconstructed by re-parsing the same program (the checkpoint stores an
// FNV-1a fingerprint of the program text and refuses to load against a
// different program). The interior of an egd
// fixpoint or a normalization pass is never checkpointed — those phases are
// atomic between safe points, and a kill inside one redoes the whole phase
// identically on resume.
//
// See docs/INTERNALS.md ("Checkpointing & recovery") for the format and the
// determinism argument.

#ifndef TDX_COMMON_CHECKPOINT_H_
#define TDX_COMMON_CHECKPOINT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/resource.h"
#include "src/common/status.h"
#include "src/common/value.h"
#include "src/core/normalize.h"
#include "src/relational/chase.h"

namespace tdx {

/// FNV-1a 64-bit fingerprint, used to bind a checkpoint to the exact
/// program text it was taken under.
std::uint64_t FingerprintText(std::string_view text);

/// A resumable snapshot of one c-chase run at a safe point. Built by the
/// c-chase (CChaseOptions::checkpointer), persisted by Checkpointer, loaded
/// with LoadChaseCheckpoint, and fed back via CChaseOptions::resume_from.
struct ChaseCheckpoint {
  /// Bumped whenever the durable encoding changes shape, or the run it
  /// captures would continue differently (v7: full st-tgds fire first, so a
  /// v6 checkpoint holds the nulls of the old fire order); ParseCheckpoint
  /// refuses every other version, so each line has exactly one layout and
  /// one meaning.
  static constexpr std::uint32_t kFormatVersion = 7;

  /// FNV-1a fingerprint of the program text the run was parsed from.
  /// Stamped by the Checkpointer; LoadChaseCheckpoint validates it.
  std::uint64_t program_fingerprint = 0;
  /// Execution-options fingerprint ("engine=cchase semi-naive=1 ...").
  /// Resume refuses a mismatch: different options walk a different (equally
  /// correct) trajectory, breaking bit-identity. Resource limits are
  /// deliberately NOT part of it.
  std::string config;

  /// Where in the c-chase the safe point sits: "init", "st-tgd", "loop-top"
  /// or "rounds" (see CChaseOptions::checkpointer).
  std::string phase;
  /// Target-tgd rounds completed so far.
  std::size_t rounds = 0;

  /// The run's work record up to the safe point. A resumed run restores it
  /// and its guard admits further work against it, so count budgets carry
  /// over. The certificate is not serialized; recomputed on resume.
  ChaseStats stats;
  NormalizeStats source_norm_stats;
  NormalizeStats target_norm_stats;
  /// Wall time spent up to the safe point; seeds the resumed run's guard.
  ResourceLedger consumed;

  /// The Universe's labeled-null namespace at the safe point: the next
  /// fresh-null id and the display names of all nulls minted so far.
  NullId next_null = 0;
  std::vector<std::string> null_names;

  /// Semi-naive frontier state (meaningful at "loop-top" and "rounds"):
  /// the marks, and the rows below them an egd rewrote since the last round
  /// (ascending, each inside the target).
  bool frontier_full = true;
  std::vector<std::uint32_t> frontier_marks;
  std::vector<FactRef> frontier_rows;
  /// The egd frontier: marks past which facts were appended since the last
  /// egd fixpoint (full before the first one, or after positions moved).
  bool egd_frontier_full = true;
  std::vector<std::uint32_t> egd_frontier_marks;

  /// Incremental-normalization watermark (when the state was valid
  /// at the safe point — see core/normalize_incremental.h). `norm_marks`
  /// holds per-relation prefix sizes of the last normalized output,
  /// `norm_labels` its component labels flattened in relation order
  /// (sum(norm_marks) entries), `norm_dirty` the prefix rows an egd
  /// rewrote in place since that output (ascending, each below its
  /// relation's mark). Absent (valid=false) in checkpoints taken after a
  /// position-moving egd merge or under a non-incremental run; resume then
  /// starts with a full pass, exactly like the uninterrupted run.
  bool norm_state_valid = false;
  std::vector<std::uint32_t> norm_marks;
  std::vector<std::uint32_t> norm_labels;
  std::uint32_t norm_components = 0;
  std::vector<FactRef> norm_dirty;

  /// How warm the round finder's and the normalizer's index caches were
  /// over the target (IndexCache::Warmth). Caches are derived state, but a
  /// resumed run rebuilds exactly these, uncounted, so the rows its later
  /// probes hash — IndexStats::rows_indexed — match the uninterrupted run.
  std::vector<IndexWarmth> round_warmth;
  std::vector<IndexWarmth> norm_warmth;

  /// The partial target (from "loop-top" on).
  std::optional<Instance> target;
  /// The normalized source (once past "init").
  std::optional<Instance> normalized_source;
};

/// Decides which safe points to persist and writes them durably. One
/// Checkpointer serves one c-chase run; the c-chase calls AtSafePoint at
/// every safe point and the checkpointer applies the cadence: phase
/// boundaries always write, round-level points write every
/// `every_rounds`-th offer.
///
/// Writes are atomic (temp file + rename) and best-effort: a write failure
/// is recorded in last_error() and the chase continues — losing a
/// checkpoint must never lose the run. With an empty path the checkpoint is
/// only retained in memory (latest()), which is what the in-process chaos
/// tests use.
class Checkpointer {
 public:
  /// `schema` and `universe` are what the serialized instances refer to;
  /// both must outlive the Checkpointer. An empty `path` keeps checkpoints
  /// in memory only.
  Checkpointer(std::string path, const Schema* schema,
               const Universe* universe)
      : path_(std::move(path)),
        schema_(schema),
        universe_(universe),
        keep_latest_(path_.empty()) {}

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// Round-level safe points persist every `every_rounds`-th offer
  /// (default 16; 1 = every safe point). Boundaries always reach the
  /// overhead throttle below.
  void set_cadence(std::size_t every_rounds) {
    every_rounds_ = every_rounds == 0 ? 1 : every_rounds;
  }
  /// Overhead budget: the cumulative time spent building and writing
  /// checkpoints is kept under `fraction` of the run's elapsed time (default
  /// 0.05). A safe point that would blow the budget — estimated by the cost
  /// of the previous persist — is skipped; the first persist is always
  /// allowed. This self-tunes: big instances cost more to snapshot, so they
  /// checkpoint less often, and the recovery window stays proportional to
  /// the run. <= 0 disables the throttle (the chaos tests persist every
  /// point to make the recovery window — and the persist pattern —
  /// deterministic).
  void set_max_overhead(double fraction) { max_overhead_ = fraction; }
  /// Program-text fingerprint stamped into every checkpoint written.
  void set_fingerprint(std::uint64_t fingerprint) {
    fingerprint_ = fingerprint;
  }
  /// Also retain the newest checkpoint in memory (implied by empty path).
  void set_keep_latest(bool keep) { keep_latest_ = keep || path_.empty(); }

  using BuildFn = std::function<ChaseCheckpoint()>;

  /// Called by the c-chase at every safe point. `build` is only invoked when
  /// the cadence says this point persists (building a checkpoint copies the
  /// target instance — the cadence exists to amortize that). Returns true
  /// if a checkpoint was persisted.
  bool AtSafePoint(bool phase_boundary, const BuildFn& build);

  /// The newest checkpoint, when keep-latest is on.
  const std::optional<ChaseCheckpoint>& latest() const { return latest_; }
  /// First write failure, if any (OK otherwise).
  const Status& last_error() const { return last_error_; }
  /// Safe points offered / checkpoints persisted.
  std::size_t safe_points() const { return safe_points_; }
  std::size_t writes() const { return writes_; }

 private:
  std::string path_;
  const Schema* schema_;
  const Universe* universe_;
  std::size_t every_rounds_ = 16;
  double max_overhead_ = 0.05;
  std::uint64_t fingerprint_ = 0;
  bool keep_latest_;
  std::size_t safe_points_ = 0;
  std::size_t round_points_ = 0;
  std::size_t writes_ = 0;
  std::chrono::steady_clock::time_point created_ =
      std::chrono::steady_clock::now();
  std::chrono::nanoseconds total_cost_{0};
  std::chrono::nanoseconds last_cost_{0};
  std::optional<ChaseCheckpoint> latest_;
  Status last_error_ = Status::OK();
};

/// Serializes and atomically writes `checkpoint` to `path`.
Status SaveChaseCheckpoint(const ChaseCheckpoint& checkpoint,
                           const Schema& schema, const Universe& universe,
                           const std::string& path);

/// Reads, parses, and validates a checkpoint: the stored program
/// fingerprint must equal `program_fingerprint`, the FingerprintText of the
/// program the caller re-parsed to rebuild the symbol table (`schema` and
/// `universe` are that program's); a mismatch is InvalidArgument.
/// Constants in the checkpoint are re-interned into `universe`. The caller
/// still passes the result to the c-chase via CChaseOptions::resume_from,
/// which restores the null namespace and validates the config.
Result<ChaseCheckpoint> LoadChaseCheckpoint(const std::string& path,
                                            std::uint64_t program_fingerprint,
                                            const Schema* schema,
                                            Universe* universe);

}  // namespace tdx

#endif  // TDX_COMMON_CHECKPOINT_H_
