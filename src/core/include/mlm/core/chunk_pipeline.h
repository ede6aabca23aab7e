// ChunkPipeline: the paper's triple-buffered chunking scheme (Section 3,
// Figure 2) as executable host code.
//
// A large far-memory array is processed in near-memory-sized chunks by
// three dedicated thread pools: while the compute pool works on chunk
// s-1 in near memory, the copy-in pool loads chunk s and the copy-out
// pool stores chunk s-2.  Steps are barriers: a step ends when its three
// stages have all finished — the same semantics the analytic model
// (mlm/core/buffer_model.h) and the simulator assume.
//
// The engine is expressed against one adjacent *tier pair* of a
// MemoryHierarchy (mlm/memory/memory_hierarchy.h).  When the pair has no
// addressable near tier (implicit cache mode, DDR-only) the pipeline
// degenerates as the paper describes (§3.1): no explicit copies happen,
// all threads compute, and each chunk is processed in place — the
// hardware cache (when present) does the data movement.
//
// run_tiered_pipeline composes pipelines across every adjacent pair of
// an N-tier hierarchy: the outer level streams farthest-tier-resident
// megachunks into the middle tier while the inner level streams those
// through the nearest tier — the paper's §6 "double chunking", for any
// number of levels.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mlm/core/adapt_seam.h"
#include "mlm/core/degrade.h"
#include "mlm/memory/dual_space.h"
#include "mlm/memory/memory_hierarchy.h"
#include "mlm/parallel/executor.h"
#include "mlm/parallel/stream_copy.h"
#include "mlm/parallel/triple_pools.h"
#include "mlm/support/error.h"
#include "mlm/support/stopwatch.h"
#include "mlm/support/trace.h"

namespace mlm {
class DeterministicScheduler;
}  // namespace mlm

namespace mlm::core {

class PipelineValidator;

/// How many chunk buffers the pipeline cycles through.
enum class Buffering : std::uint8_t {
  Single, ///< copy-in, compute, copy-out fully serialized (1 buffer)
  Double, ///< copy-in overlaps {compute; copy-out} (2 buffers)
  Triple, ///< all three stages overlap (3 buffers; the paper's scheme)
};

const char* to_string(Buffering buffering);

/// Per-run statistics.
struct PipelineStats {
  std::size_t chunks = 0;
  std::size_t steps = 0;
  double total_seconds = 0.0;
  std::vector<double> step_seconds;
  std::uint64_t bytes_copied_in = 0;
  std::uint64_t bytes_copied_out = 0;
  /// Per-stage busy time: the span from posting a stage's slices to
  /// the last one finishing (not to the step barrier that joins them),
  /// summed over steps.  Overlapped stages share wall time, so the three
  /// can sum to more than total_seconds.
  double copy_in_seconds = 0.0;
  double compute_seconds = 0.0;
  double copy_out_seconds = 0.0;
  /// Recovery-ladder rungs taken (mlm/core/degrade.h): counts plus the
  /// full event list.  All zero/empty on an undisturbed run.
  std::size_t retries = 0;
  std::size_t chunk_halvings = 0;
  std::size_t tier_fallbacks = 0;
  std::vector<DegradationEvent> degradations;
  /// What the tuning hook did to this run (all zero without a hook).
  AdaptationStats adaptation;

  /// Effective far<->near transfer bandwidth observed per direction
  /// (bytes over stage span; 0 when the stage never ran).
  double effective_in_bw() const {
    return copy_in_seconds > 0.0
               ? static_cast<double>(bytes_copied_in) / copy_in_seconds
               : 0.0;
  }
  double effective_out_bw() const {
    return copy_out_seconds > 0.0
               ? static_cast<double>(bytes_copied_out) / copy_out_seconds
               : 0.0;
  }

  /// Accumulate another run's counters (tiered runs invoke the inner
  /// pipeline once per outer chunk and merge the results per level).
  void merge(const PipelineStats& other);
};

/// Optional Perfetto/chrome://tracing export of per-stage spans.
struct PipelineTraceConfig {
  TraceWriter* writer = nullptr;   ///< null = tracing off
  /// Copy-in events land on `track_base`, compute on +1, copy-out on +2.
  std::uint32_t track_base = 0;
  std::string label;               ///< event-name prefix (e.g. "L0 ")
  /// Shared clock so nested pipelines align on one timeline; null = the
  /// run's own epoch.
  const Stopwatch* epoch = nullptr;
};

/// Pipeline configuration.
struct PipelineConfig {
  /// Chunk size in bytes; must allow `buffer_count` live buffers in the
  /// near space when explicit copies are used.  0 = near capacity
  /// divided by the buffer count (the whole span when the near tier is
  /// unlimited or absent).
  std::size_t chunk_bytes = 0;
  PoolSizes pools;
  /// Topology placement for the three pools
  /// (mlm/parallel/triple_pools.h): under TierLocal the copy pools pin
  /// next to the far tier's NUMA node and compute next to the near
  /// tier's.  Best-effort and a recorded no-op under a deterministic
  /// scheduler, so schedules and digests never depend on it.
  PoolAffinity affinity;
  /// Fault the near-tier chunk buffers in from the copy-in pool before
  /// the run (mlm/parallel/first_touch.h), so with node-pinned copy
  /// workers the buffer pages land on the node that streams them.
  /// Value-preserving; off by default.
  bool first_touch = false;
  Buffering buffering = Buffering::Triple;
  /// If false, chunks are read-only for compute and are not copied back
  /// (e.g. reductions); the copy-out pool idles.
  bool write_back = true;
  /// Copy-out slice kernel (mlm/parallel/stream_copy.h).  Evicted
  /// chunks are dead to the near-tier working set, so the default
  /// streams large copy-outs with non-temporal stores instead of
  /// dragging them through the cache; bytes and schedules are identical
  /// in every mode.
  CopyMode copy_out_mode = CopyMode::Auto;
  PipelineTraceConfig trace;
  /// When set, the run uses single-threaded DeterministicExecutors on
  /// this scheduler instead of real thread pools: task interleaving is
  /// a pure function of the scheduler's seed and fully replayable (see
  /// mlm/parallel/deterministic_executor.h).
  DeterministicScheduler* scheduler = nullptr;
  /// When set, buffer-ownership transitions are reported here and every
  /// ordering-invariant violation throws PipelineInvariantError (see
  /// mlm/core/pipeline_validator.h).
  PipelineValidator* validator = nullptr;
  /// Recovery ladder for near-tier exhaustion and stage failures
  /// (mlm/core/degrade.h).  Defaults off: failures propagate as
  /// structured errors.  Fault injection lives in mlm/fault/fault.h —
  /// arm the pipeline.* sites to exercise this ladder deterministically
  /// (the schedule harness arms pipeline.skip_copy_out_wait to plant the
  /// classic missed-join bug for PipelineValidator to catch).
  DegradePolicy degrade;
  /// Online retuning seam (mlm/core/adapt_seam.h).  When set, the
  /// stepper reports each barrier step's stage times and applies the
  /// returned tuning: thread split and copy-out mode live, chunk size
  /// recorded as desired_chunk_bytes for the next run (buffers are
  /// allocated up front).  Null = fixed configuration.
  TuningHook tuning_hook;
};

/// Compute stage callback: process `chunk` (resident in near memory, or
/// in place under implicit mode) using `pool`'s workers — a real
/// ThreadPool or a DeterministicExecutor, depending on the run.
/// `chunk_index` identifies the chunk within the run.
using ComputeFn = std::function<void(std::span<std::byte> chunk,
                                     Executor& pool,
                                     std::size_t chunk_index)>;

/// Stream `data` (resident in the pair's far tier) through the pair's
/// near tier chunk by chunk, applying `compute` to each chunk.
/// Modifications are written back to `data` (unless config.write_back is
/// false).  An empty `data` is a no-op returning zeroed stats.  Throws
/// OutOfMemoryError if the configured buffers do not fit in the near
/// tier.
PipelineStats run_chunk_pipeline(const TierPair& tiers,
                                 std::span<std::byte> data,
                                 const PipelineConfig& config,
                                 const ComputeFn& compute);

/// Resumable form of run_chunk_pipeline, the suspension primitive of the
/// service layer (mlm/service/job.h).
///
/// Construction performs the whole setup: chunk sizing, the near-tier
/// buffer-allocation recovery ladder (retry / halve / far-tier
/// fallback), pool creation, and validator begin_run.  Each step() then
/// executes exactly one barrier step of the configured buffering scheme,
/// so the caller — a run-to-completion loop or a multi-job scheduler —
/// decides when the next step runs, and a job holding a stepper can be
/// suspended at every chunk boundary.  finish() closes the run
/// (validator end_run) and returns the stats.  Destroying a stepper
/// before completion cancels the run: buffers are released and pending
/// pool tasks are drained or dropped.
///
/// run_chunk_pipeline(tiers, data, config, compute) is exactly
/// `ChunkPipelineStepper s{...}; while (s.step()) {} return s.finish();`.
class ChunkPipelineStepper {
 public:
  ChunkPipelineStepper(const TierPair& tiers, std::span<std::byte> data,
                       const PipelineConfig& config, ComputeFn compute);
  ~ChunkPipelineStepper();

  ChunkPipelineStepper(const ChunkPipelineStepper&) = delete;
  ChunkPipelineStepper& operator=(const ChunkPipelineStepper&) = delete;

  /// Execute the next barrier step.  Returns true while more steps
  /// remain, false once the run is complete (a completed or empty run
  /// returns false without doing work).  Throws the same structured
  /// errors as run_chunk_pipeline; a throwing stepper is dead (done()).
  bool step();

  /// Whether the run is complete (all steps executed, or failed).
  bool done() const;

  /// Chunks this run will process.
  std::size_t chunks() const;

  /// Chunks fully retired so far: their compute ran and (with
  /// write_back) their copy-out joined, so the far-tier range of every
  /// chunk below this watermark holds final bytes.  This is the
  /// crash-consistency seam (mlm/service/checkpoint.h): a checkpoint
  /// records the watermark and recovery resumes with a fresh stepper
  /// over the remaining suffix — redoing at most the chunks that were
  /// in flight, which is output-transparent whenever the compute is
  /// idempotent at chunk granularity (see DESIGN.md §10).
  std::size_t completed_chunks() const;

  /// Resolved chunk size in bytes (after config 0 = auto resolution and
  /// any degradation-ladder halving), so a recovery checkpoint can
  /// reconstruct the chunk boundaries exactly.
  std::size_t chunk_bytes() const;

  /// Close the run and return its statistics.  Call once, after done().
  PipelineStats finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Compatibility overload: the DDR -> MCDRAM pair of a DualSpace.
PipelineStats run_chunk_pipeline(DualSpace& space,
                                 std::span<std::byte> data,
                                 const PipelineConfig& config,
                                 const ComputeFn& compute);

/// Configuration of a tier-recursive pipeline run.
struct TieredPipelineConfig {
  /// One entry per tier pair, outermost (farthest pair) first; missing
  /// entries default-construct.  Levels above the innermost drive the
  /// next pipeline down from their compute stage, so a single compute
  /// thread suffices there (see make_tiered_pool_sizes).
  std::vector<PipelineConfig> levels;
  /// When set, every level traces onto this writer: level L uses tracks
  /// [3L, 3L+2] with label "L<L> " (overrides per-level trace config).
  TraceWriter* trace = nullptr;
  /// When set, every level runs deterministically on this one scheduler
  /// (overrides per-level scheduler config), so outer-level copies and
  /// inner-level stages interleave under a single seeded schedule.
  DeterministicScheduler* scheduler = nullptr;
};

/// Statistics of a tiered run, aggregated per level (level 0 = the
/// outermost pair).
struct TieredPipelineStats {
  std::vector<PipelineStats> levels;
  double total_seconds = 0.0;

  std::uint64_t bytes_copied_in(std::size_t level) const {
    return levels.at(level).bytes_copied_in;
  }
  std::uint64_t bytes_copied_out(std::size_t level) const {
    return levels.at(level).bytes_copied_out;
  }
};

/// Recursive driver: stream `data` (resident in the farthest tier of
/// `hierarchy`) through every nearer tier.  The pipeline over pair L
/// runs the pipeline over pair L+1 as its compute stage; `compute` runs
/// on the innermost chunks, which are resident in the nearest
/// addressable tier.  With the 3-tier NVM -> DDR -> MCDRAM hierarchy
/// this is exactly the paper's §6 double chunking, executable.
TieredPipelineStats run_tiered_pipeline(MemoryHierarchy& hierarchy,
                                        std::span<std::byte> data,
                                        const TieredPipelineConfig& config,
                                        const ComputeFn& compute);

/// Typed convenience wrapper: chunk boundaries are element-aligned.
template <typename T, typename Fn>
PipelineStats run_chunk_pipeline_typed(DualSpace& space, std::span<T> data,
                                       PipelineConfig config,
                                       Fn&& compute) {
  if (config.chunk_bytes != 0) {
    // Name the tier the chunks stream into so a multi-job degradation
    // log attributes the bad configuration to the right arena.
    TierPair pair = space.tier_pair();
    const MemorySpace& staged =
        pair.explicit_copies() ? *pair.near_tier : *pair.far_tier;
    MLM_REQUIRE(config.chunk_bytes >= sizeof(T),
                "chunk_bytes=" + std::to_string(config.chunk_bytes) +
                    " smaller than one element (tier '" + staged.name() +
                    "')");
    config.chunk_bytes -= config.chunk_bytes % sizeof(T);
  }
  auto bytes = std::as_writable_bytes(data);
  return run_chunk_pipeline(
      space, bytes, config,
      [&compute](std::span<std::byte> chunk, Executor& pool,
                 std::size_t index) {
        std::span<T> typed{reinterpret_cast<T*>(chunk.data()),
                           chunk.size() / sizeof(T)};
        compute(typed, pool, index);
      });
}

/// Typed tiered wrapper: every level's chunk boundary is element-aligned.
template <typename T, typename Fn>
TieredPipelineStats run_tiered_pipeline_typed(MemoryHierarchy& hierarchy,
                                              std::span<T> data,
                                              TieredPipelineConfig config,
                                              Fn&& compute) {
  for (std::size_t l = 0; l < config.levels.size(); ++l) {
    PipelineConfig& level = config.levels[l];
    if (level.chunk_bytes != 0) {
      // Level l streams into tier l+1 (or processes tier l in place
      // when that tier is not addressable).
      const std::size_t tier = std::min(l + 1, hierarchy.tier_count() - 1);
      const std::string& tier_name =
          hierarchy.tier_addressable(tier)
              ? hierarchy.tier_config(tier).name
              : hierarchy.tier_config(std::min(l, tier)).name;
      MLM_REQUIRE(level.chunk_bytes >= sizeof(T),
                  "chunk_bytes=" + std::to_string(level.chunk_bytes) +
                      " smaller than one element (tier '" + tier_name +
                      "')");
      level.chunk_bytes -= level.chunk_bytes % sizeof(T);
    }
  }
  auto bytes = std::as_writable_bytes(data);
  return run_tiered_pipeline(
      hierarchy, bytes, config,
      [&compute](std::span<std::byte> chunk, Executor& pool,
                 std::size_t index) {
        std::span<T> typed{reinterpret_cast<T*>(chunk.data()),
                           chunk.size() / sizeof(T)};
        compute(typed, pool, index);
      });
}

}  // namespace mlm::core
