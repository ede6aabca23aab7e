#include "mlm/core/chunk_pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <thread>

#include "mlm/core/pipeline_validator.h"
#include "mlm/fault/fault.h"
#include "mlm/memory/memory_space.h"
#include "mlm/parallel/deterministic_executor.h"
#include "mlm/parallel/first_touch.h"
#include "mlm/parallel/parallel_memcpy.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/support/cache_line.h"
#include "mlm/support/error.h"
#include "mlm/support/stopwatch.h"

namespace mlm::core {

const char* to_string(Buffering buffering) {
  switch (buffering) {
    case Buffering::Single: return "single";
    case Buffering::Double: return "double";
    case Buffering::Triple: return "triple";
  }
  return "?";
}

void PipelineStats::merge(const PipelineStats& other) {
  chunks += other.chunks;
  steps += other.steps;
  total_seconds += other.total_seconds;
  step_seconds.insert(step_seconds.end(), other.step_seconds.begin(),
                      other.step_seconds.end());
  bytes_copied_in += other.bytes_copied_in;
  bytes_copied_out += other.bytes_copied_out;
  copy_in_seconds += other.copy_in_seconds;
  compute_seconds += other.compute_seconds;
  copy_out_seconds += other.copy_out_seconds;
  retries += other.retries;
  chunk_halvings += other.chunk_halvings;
  tier_fallbacks += other.tier_fallbacks;
  degradations.insert(degradations.end(), other.degradations.begin(),
                      other.degradations.end());
  adaptation.merge(other.adaptation);
}

namespace {

std::size_t buffer_count(Buffering b) {
  switch (b) {
    case Buffering::Single: return 1;
    case Buffering::Double: return 2;
    case Buffering::Triple: return 3;
  }
  return 3;
}

// One static site per pipeline failure class (mlm/fault/fault.h); a
// query is a single relaxed atomic load unless a plan is installed.
fault::FaultSite& buffer_alloc_fault_site() {
  static fault::FaultSite site(fault::sites::kPipelineBufferAlloc);
  return site;
}
fault::FaultSite& copy_in_fault_site() {
  static fault::FaultSite site(fault::sites::kPipelineCopyIn);
  return site;
}
fault::FaultSite& compute_fault_site() {
  static fault::FaultSite site(fault::sites::kPipelineCompute);
  return site;
}
fault::FaultSite& copy_out_fault_site() {
  static fault::FaultSite site(fault::sites::kPipelineCopyOut);
  return site;
}
fault::FaultSite& skip_copy_out_wait_site() {
  static fault::FaultSite site(fault::sites::kPipelineSkipCopyOutWait);
  return site;
}

/// Stage clock + optional trace-event sink shared by all stages of one
/// pipeline run.  Time is read from the caller's epoch when provided so
/// nested (tiered) runs align on one timeline.
class StageTracer {
 public:
  explicit StageTracer(const PipelineTraceConfig& cfg) : cfg_(cfg) {}

  double now() const {
    return cfg_.epoch != nullptr ? cfg_.epoch->elapsed_s()
                                 : local_.elapsed_s();
  }

  /// stage: 0 = copy-in, 1 = compute, 2 = copy-out.
  void emit(std::uint32_t stage, const char* name, std::size_t chunk,
            double t0, double t1) const {
    if (cfg_.writer == nullptr) return;
    cfg_.writer->add_event(cfg_.label + name + " c" + std::to_string(chunk),
                           name, cfg_.track_base + stage, t0, t1 - t0);
  }

 private:
  const PipelineTraceConfig& cfg_;
  Stopwatch local_;
};

}  // namespace

/// All state of one resumable pipeline run.  The former run-to-completion
/// function body, with its closure captures promoted to members so that a
/// scheduler can execute the barrier steps one at a time.
struct ChunkPipelineStepper::Impl {
  TierPair tiers;
  std::span<std::byte> data;
  PipelineConfig config;
  ComputeFn compute;
  StageTracer tracer;
  PipelineValidator* validator;
  std::size_t bufs;
  bool explicit_copies;
  std::string near_name;

  std::size_t chunk_bytes = 0;
  std::size_t num_chunks = 0;
  /// Implicit/DDR-only mode, or rung 3 of the recovery ladder: chunks
  /// are processed in place by the compute pool, no copies.
  bool in_place = false;
  /// Loop bound on the step index (buffering-dependent: triple
  /// buffering needs two drain steps past the last chunk).
  std::size_t step_limit = 0;

  // Buffers and copy stamps are declared before the pools so that on any
  // exit the pools drain (or, deterministically, drop) their pending
  // slices while what those slices touch is still alive.
  std::vector<Allocation> buffers;
  /// Tracer time at which the last slice of the copy-in / copy-out in
  /// flight finished (see stamp_done).
  std::atomic<double> in_done_s{0.0};
  std::atomic<double> out_done_s{0.0};
  std::unique_ptr<Executor> inplace_pool;
  std::optional<TriplePools> pools;

  PipelineStats stats;
  Stopwatch total;
  std::size_t s = 0;  ///< next step index
  bool complete = false;
  bool finished = false;

  // Snapshots of the cumulative stage counters at the previous barrier,
  // so the tuning hook sees this step's deltas only.
  double hook_ci_s = 0.0, hook_cp_s = 0.0, hook_co_s = 0.0;
  std::uint64_t hook_bi = 0, hook_bo = 0;
  std::size_t hook_degr = 0;

  Impl(const TierPair& tiers_in, std::span<std::byte> data_in,
       const PipelineConfig& config_in, ComputeFn compute_in)
      : tiers(tiers_in),
        data(data_in),
        config(config_in),
        compute(std::move(compute_in)),
        tracer(config.trace),
        validator(config.validator),
        bufs(buffer_count(config.buffering)),
        explicit_copies(tiers.explicit_copies()),
        near_name(explicit_copies ? tiers.near_tier->name()
                                  : tiers.far_tier != nullptr
                                        ? tiers.far_tier->name()
                                        : std::string()) {
    MLM_REQUIRE(compute != nullptr, "compute callback required");

    if (data.empty()) {
      if (validator != nullptr) {
        validator->begin_run(0, bufs, 0, explicit_copies,
                             config.write_back);
      }
      complete = true;
      return;
    }

    // Resolve the chunk size.
    chunk_bytes = config.chunk_bytes;
    if (chunk_bytes == 0) {
      if (explicit_copies && !tiers.near_tier->unlimited()) {
        const std::uint64_t cap = tiers.near_tier->stats().free_bytes();
        chunk_bytes = static_cast<std::size_t>(cap / bufs);
        chunk_bytes = round_down(chunk_bytes, kCacheLineBytes);
      } else {
        chunk_bytes = data.size();
      }
    }
    MLM_REQUIRE(chunk_bytes > 0, "chunk size must be positive");

    if (explicit_copies) {
      allocate_buffers_or_fall_back();
    } else {
      in_place = true;
    }

    num_chunks = (data.size() + chunk_bytes - 1) / chunk_bytes;
    stats.chunks = num_chunks;
    if (in_place) {
      // Implicit cache / DDR-only / rung 3: one big compute pool, no
      // copies (§3.1: "all available threads are dedicated to
      // performing the compute").  Chunks are serialized, so the
      // validator sees one virtual buffer cycled through every chunk.
      if (config.scheduler != nullptr) {
        inplace_pool = std::make_unique<DeterministicExecutor>(
            *config.scheduler, config.pools.total(), "compute");
      } else {
        inplace_pool = std::make_unique<ThreadPool>(config.pools.total(),
                                                    "compute");
      }
      step_limit = num_chunks;
      if (validator != nullptr) {
        validator->begin_run(num_chunks, 1, data.size(), false,
                             config.write_back);
      }
    } else {
      pools.emplace(config.scheduler != nullptr
                        ? TriplePools(config.pools, *config.scheduler,
                                      config.affinity)
                        : TriplePools(config.pools, config.affinity));
      if (config.first_touch) {
        // Fault the chunk buffers in from the copy-in pool — the
        // workers that will stream into them — so first-touch page
        // placement puts the pages on (a) node(s) those workers are
        // pinned to.  Value-preserving, and under a deterministic
        // scheduler just more seeded tasks.
        for (Allocation& buf : buffers) {
          first_touch(pools->copy_in(), buf.get(), buf.size_bytes());
        }
      }
      switch (config.buffering) {
        case Buffering::Single: step_limit = num_chunks; break;
        case Buffering::Double: step_limit = num_chunks + 1; break;
        case Buffering::Triple: step_limit = num_chunks + 2; break;
      }
      if (validator != nullptr) {
        validator->begin_run(num_chunks, bufs, data.size(), true,
                             config.write_back);
      }
    }
  }

  void record_degradation(std::string site, std::string action,
                          std::int64_t chunk, std::size_t attempt) {
    stats.degradations.push_back(DegradationEvent{
        std::move(site), std::move(action), chunk, attempt});
  }

  // Doubling backoff before a retry.  Deterministic runs never sleep:
  // schedule exploration must stay a pure function of the seed.
  void backoff(std::size_t attempt) const {
    if (config.scheduler != nullptr) return;
    const std::size_t us = config.degrade.delay_us(attempt);
    if (us == 0) return;
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }

  // Flat / hybrid: allocate the chunk buffers in the near tier, walking
  // the recovery ladder on exhaustion (real or injected): retry for
  // transient pressure, halve the chunk size down to the policy floor,
  // and finally fall back to in-place far-tier compute — the
  // HBW_POLICY_PREFERRED analogue.
  void allocate_buffers_or_fall_back() {
    buffers.reserve(bufs);
    for (std::size_t attempt = 0;;) {
      try {
        if (buffer_alloc_fault_site().should_fire()) {
          throw OutOfMemoryError(
              "injected near-tier exhaustion at site '" +
              std::string(fault::sites::kPipelineBufferAlloc) + "'");
        }
        while (buffers.size() < bufs) {
          buffers.emplace_back(*tiers.near_tier, chunk_bytes);
        }
        return;
      } catch (OutOfMemoryError& e) {
        buffers.clear();  // release partial progress before degrading
        if (attempt < config.degrade.max_retries) {
          ++attempt;
          ++stats.retries;
          record_degradation(fault::sites::kPipelineBufferAlloc, "retry",
                             -1, attempt);
          backoff(attempt);
          continue;
        }
        const std::size_t floor_bytes = std::max<std::size_t>(
            config.degrade.min_chunk_bytes, kCacheLineBytes);
        const std::size_t halved =
            round_down(chunk_bytes / 2, kCacheLineBytes);
        if (config.degrade.allow_chunk_halving && halved >= floor_bytes) {
          chunk_bytes = halved;
          attempt = 0;
          ++stats.chunk_halvings;
          record_degradation(fault::sites::kPipelineBufferAlloc,
                             "chunk_halved", -1, 0);
          continue;
        }
        if (config.degrade.allow_tier_fallback) {
          // Rung 3: process the data where it already lives (the far
          // tier) — exactly what PREFERRED would have done.
          ++stats.tier_fallbacks;
          record_degradation(fault::sites::kPipelineBufferAlloc,
                             "tier_fallback", -1, 0);
          in_place = true;
          return;
        }
        e.with_frame(
            {"buffer_alloc", -1, near_name, "orchestrator",
             "chunk_bytes=" + std::to_string(chunk_bytes) + " buffers=" +
                 std::to_string(bufs)});
        e.with_frame({"run_chunk_pipeline", -1, near_name, "", ""});
        throw;
      }
    }
  }

  std::span<std::byte> chunk_range(std::size_t c) const {
    const std::size_t off = c * chunk_bytes;
    return data.subspan(off, std::min(chunk_bytes, data.size() - off));
  }

  void vacquire(PipelineStage st, std::size_t c) {
    if (validator != nullptr) validator->acquire(st, c, c % bufs);
  }
  void vrelease(PipelineStage st, std::size_t c) {
    if (validator != nullptr) validator->release(st, c, c % bufs);
  }

  // Stage-launch fault guard.  Runs before the stage acquires its buffer
  // or posts any slice, so a retry re-attempts from a clean state; when
  // retries are exhausted the error names the stage, chunk, and tier.
  void stage_guard(fault::FaultSite& site, const char* op, std::size_t c) {
    std::size_t attempt = 0;
    while (site.should_fire()) {
      if (attempt < config.degrade.max_retries) {
        ++attempt;
        ++stats.retries;
        record_degradation(site.name(), "retry",
                           static_cast<std::int64_t>(c), attempt);
        backoff(attempt);
        continue;
      }
      fault::InjectedFaultError err("injected fault at site '" +
                                    site.name() + "'");
      err.with_frame({op, static_cast<std::int64_t>(c), near_name,
                      "orchestrator",
                      "retries exhausted after " +
                          std::to_string(attempt) + " attempts"});
      throw err;
    }
  }

  // Task-level failures (thrown by pool workers, surfaced at the join /
  // inside compute) get annotated with the same stage context.
  void annotate(Error& e, const char* op, std::size_t c,
                const char* thread) const {
    e.with_frame({op, static_cast<std::int64_t>(c), near_name, thread, ""});
  }

  // The orchestrating thread posts copy slices asynchronously so every
  // pool worker stays available for the slices themselves (wrapping a
  // blocking parallel_memcpy in a pool task would deadlock a 1-thread
  // pool), then drives the compute stage synchronously and joins the
  // copies at the step barrier.  Joins go through Executor::wait so a
  // DeterministicExecutor can run its tasks while the orchestrator
  // blocks.  A buffer is owned (validator-acquired) from slice posting
  // until its join.
  std::vector<std::future<void>> copy_in_async(std::size_t c) {
    stage_guard(copy_in_fault_site(), "copy_in", c);
    auto src = chunk_range(c);
    vacquire(PipelineStage::CopyIn, c);
    stats.bytes_copied_in += src.size();
    return parallel_memcpy_async(
        pools->copy_in(), buffers[c % bufs].get(), src.data(), src.size(),
        pools->copy_in().size(), CopyMode::Cached, kCopySliceAlignBytes,
        [this] { stamp_done(in_done_s); });
  }
  void run_compute(std::size_t c) {
    stage_guard(compute_fault_site(), "compute", c);
    auto r = chunk_range(c);
    const double t0 = tracer.now();
    vacquire(PipelineStage::Compute, c);
    try {
      compute(std::span<std::byte>(
                  static_cast<std::byte*>(buffers[c % bufs].get()),
                  r.size()),
              pools->compute(), c);
    } catch (Error& e) {
      annotate(e, "compute", c, "pool-worker");
      throw;
    }
    vrelease(PipelineStage::Compute, c);
    const double t1 = tracer.now();
    stats.compute_seconds += t1 - t0;
    tracer.emit(1, "compute", c, t0, t1);
  }
  std::vector<std::future<void>> copy_out_async(std::size_t c) {
    stage_guard(copy_out_fault_site(), "copy_out", c);
    auto dst = chunk_range(c);
    vacquire(PipelineStage::CopyOut, c);
    stats.bytes_copied_out += dst.size();
    return parallel_memcpy_async(
        pools->copy_out(), dst.data(), buffers[c % bufs].get(), dst.size(),
        pools->copy_out().size(), config.copy_out_mode, kCopySliceAlignBytes,
        [this] { stamp_done(out_done_s); });
  }
  // Raise a copy stage's completion stamp to now; slices run
  // concurrently, so the stamp ends up at the last one to finish.
  void stamp_done(std::atomic<double>& done) const {
    const double t = tracer.now();
    double seen = done.load(std::memory_order_relaxed);
    while (seen < t && !done.compare_exchange_weak(
                           seen, t, std::memory_order_relaxed)) {
    }
  }
  // A copy stage's span runs from posting its slices to the moment its
  // last slice finished, not to the join: under double/triple buffering
  // the join waits for compute, which would otherwise count as copy
  // time.  The join's future orders the slices' stamps before the read;
  // a stamp left from an earlier copy predates t0, so max() drops it.
  void join_in(std::size_t c, std::vector<std::future<void>>& in,
               double t0) {
    try {
      pools->copy_in().wait(in);
    } catch (Error& e) {
      annotate(e, "copy_in", c, "pool-worker");
      throw;
    }
    vrelease(PipelineStage::CopyIn, c);
    const double t1 = std::max(t0, in_done_s.load(std::memory_order_relaxed));
    stats.copy_in_seconds += t1 - t0;
    tracer.emit(0, "copy-in", c, t0, t1);
  }
  void join_out(std::size_t c, std::vector<std::future<void>>& out,
                double t0) {
    // The planted missed-join bug the schedule harness arms to prove
    // PipelineValidator catches buffer reuse before copy-out completes.
    if (skip_copy_out_wait_site().should_fire()) return;
    try {
      pools->copy_out().wait(out);
    } catch (Error& e) {
      annotate(e, "copy_out", c, "pool-worker");
      throw;
    }
    vrelease(PipelineStage::CopyOut, c);
    const double t1 =
        std::max(t0, out_done_s.load(std::memory_order_relaxed));
    stats.copy_out_seconds += t1 - t0;
    tracer.emit(2, "copy-out", c, t0, t1);
  }

  /// Whether barrier step `idx` has at least one active stage (triple
  /// buffering without write-back leaves a dead drain step).
  bool has_work(std::size_t idx) const {
    if (in_place || config.buffering != Buffering::Triple) return true;
    const bool has_in = idx < num_chunks;
    const bool has_compute = idx >= 1 && idx - 1 < num_chunks;
    const bool has_out =
        config.write_back && idx >= 2 && idx - 2 < num_chunks;
    return has_in || has_compute || has_out;
  }

  void run_step(std::size_t idx) {
    Stopwatch step;
    if (in_place) {
      const std::size_t off = idx * chunk_bytes;
      const std::size_t len = std::min(chunk_bytes, data.size() - off);
      const double t0 = tracer.now();
      if (validator != nullptr) {
        validator->acquire(PipelineStage::Compute, idx, 0);
      }
      compute(data.subspan(off, len), *inplace_pool, idx);
      if (validator != nullptr) {
        validator->release(PipelineStage::Compute, idx, 0);
      }
      const double t1 = tracer.now();
      tracer.emit(1, "compute", idx, t0, t1);
      stats.compute_seconds += t1 - t0;
    } else {
      switch (config.buffering) {
        case Buffering::Single: {
          // Fully serialized: each chunk is loaded, computed, stored.
          const double t_in = tracer.now();
          auto in = copy_in_async(idx);
          join_in(idx, in, t_in);
          run_compute(idx);
          if (config.write_back) {
            const double t_out = tracer.now();
            auto out = copy_out_async(idx);
            join_out(idx, out, t_out);
          }
          break;
        }
        case Buffering::Double: {
          // copy-in of chunk s overlaps {compute; copy-out} of s-1.
          std::vector<std::future<void>> in;
          const double t_in = tracer.now();
          if (idx < num_chunks) in = copy_in_async(idx);
          if (idx >= 1) {
            run_compute(idx - 1);
            if (config.write_back) {
              const double t_out = tracer.now();
              auto out = copy_out_async(idx - 1);
              join_out(idx - 1, out, t_out);
            }
          }
          if (idx < num_chunks) join_in(idx, in, t_in);
          break;
        }
        case Buffering::Triple: {
          // Full three-stage overlap (Figure 2).
          const bool has_in = idx < num_chunks;
          const bool has_compute = idx >= 1 && idx - 1 < num_chunks;
          const bool has_out =
              config.write_back && idx >= 2 && idx - 2 < num_chunks;
          std::vector<std::future<void>> in, out;
          const double t_in = tracer.now();
          if (has_in) in = copy_in_async(idx);
          const double t_out = tracer.now();
          if (has_out) out = copy_out_async(idx - 2);
          if (has_compute) run_compute(idx - 1);
          if (has_in) join_in(idx, in, t_in);
          if (has_out) join_out(idx - 2, out, t_out);
          break;
        }
      }
    }
    stats.step_seconds.push_back(step.elapsed_s());
    ++stats.steps;
  }

  // The adaptive seam (mlm/core/adapt_seam.h): after a barrier step all
  // stage futures are joined, so the pools can be rebuilt safely and the
  // step's stage-time deltas are final.  The split and copy-out mode are
  // applied live; a chunk-size wish is only recorded (buffers were
  // allocated up front) so the next run can honor it.
  void apply_tuning(std::size_t idx) {
    if (!config.tuning_hook || in_place || !pools.has_value()) return;

    StepFeedback fb;
    fb.step = idx;
    fb.chunk_bytes = chunk_bytes;
    fb.pools = pools->sizes();
    fb.copy_in_seconds = stats.copy_in_seconds - hook_ci_s;
    fb.compute_seconds = stats.compute_seconds - hook_cp_s;
    fb.copy_out_seconds = stats.copy_out_seconds - hook_co_s;
    fb.bytes_in = stats.bytes_copied_in - hook_bi;
    fb.bytes_out = stats.bytes_copied_out - hook_bo;
    fb.new_degradations = stats.degradations.size() - hook_degr;
    fb.write_back = config.write_back;
    hook_ci_s = stats.copy_in_seconds;
    hook_cp_s = stats.compute_seconds;
    hook_co_s = stats.copy_out_seconds;
    hook_bi = stats.bytes_copied_in;
    hook_bo = stats.bytes_copied_out;
    hook_degr = stats.degradations.size();

    const StepTuning tuning = config.tuning_hook(fb);
    ++stats.adaptation.decisions;

    if (tuning.copy_threads != 0) {
      PoolSizes sizes = pools->sizes();
      const std::size_t compute_threads = tuning.compute_threads != 0
                                              ? tuning.compute_threads
                                              : sizes.compute;
      if (tuning.copy_threads != sizes.copy_in ||
          tuning.copy_threads != sizes.copy_out ||
          compute_threads != sizes.compute) {
        sizes.copy_in = tuning.copy_threads;
        sizes.copy_out = tuning.copy_threads;
        sizes.compute = compute_threads;
        pools->resize(sizes);
        ++stats.adaptation.split_changes;
      }
    }
    if (tuning.set_copy_out_mode &&
        tuning.copy_out_mode != config.copy_out_mode) {
      config.copy_out_mode = tuning.copy_out_mode;
      ++stats.adaptation.mode_changes;
    }
    if (tuning.chunk_bytes != 0 && tuning.chunk_bytes != chunk_bytes) {
      stats.adaptation.desired_chunk_bytes = tuning.chunk_bytes;
    }
    stats.adaptation.final_copy_threads = pools->sizes().copy_in;
    stats.adaptation.final_compute_threads = pools->sizes().compute;
  }

  void add_run_frame(Error& e) const {
    e.with_frame({"run_chunk_pipeline", -1, near_name, "",
                  std::string(to_string(config.buffering)) +
                      " buffering, chunk_bytes=" +
                      std::to_string(chunk_bytes)});
  }
};

ChunkPipelineStepper::ChunkPipelineStepper(const TierPair& tiers,
                                           std::span<std::byte> data,
                                           const PipelineConfig& config,
                                           ComputeFn compute)
    : impl_(std::make_unique<Impl>(tiers, data, config,
                                   std::move(compute))) {}

ChunkPipelineStepper::~ChunkPipelineStepper() = default;

bool ChunkPipelineStepper::done() const { return impl_->complete; }

std::size_t ChunkPipelineStepper::chunks() const {
  return impl_->num_chunks;
}

std::size_t ChunkPipelineStepper::completed_chunks() const {
  const Impl& im = *impl_;
  // Steps [0, im.s) have run.  In-place and single buffering retire one
  // chunk per step; double buffering retires chunk i-1 at step i; triple
  // buffering retires chunk i-2 at step i (its copy-out joins there).
  std::size_t lag = 0;
  if (!im.in_place) {
    switch (im.config.buffering) {
      case Buffering::Single: lag = 0; break;
      case Buffering::Double: lag = 1; break;
      case Buffering::Triple: lag = im.config.write_back ? 2 : 1; break;
    }
  }
  const std::size_t done = im.s > lag ? im.s - lag : 0;
  return std::min(done, im.num_chunks);
}

std::size_t ChunkPipelineStepper::chunk_bytes() const {
  return impl_->chunk_bytes;
}

bool ChunkPipelineStepper::step() {
  Impl& im = *impl_;
  if (im.complete) return false;
  try {
    while (im.s < im.step_limit && !im.has_work(im.s)) ++im.s;
    if (im.s < im.step_limit) {
      im.run_step(im.s);
      im.apply_tuning(im.s);
      ++im.s;
    }
    while (im.s < im.step_limit && !im.has_work(im.s)) ++im.s;
  } catch (Error& e) {
    im.complete = true;
    if (!im.in_place) im.add_run_frame(e);
    throw;
  }
  if (im.s >= im.step_limit) im.complete = true;
  return !im.complete;
}

PipelineStats ChunkPipelineStepper::finish() {
  Impl& im = *impl_;
  MLM_CHECK_MSG(im.complete, "finish() before the run completed");
  MLM_CHECK_MSG(!im.finished, "finish() called twice");
  im.finished = true;
  im.stats.total_seconds = im.total.elapsed_s();
  if (im.validator != nullptr) {
    try {
      im.validator->end_run(im.stats);
    } catch (Error& e) {
      if (!im.in_place) im.add_run_frame(e);
      throw;
    }
  }
  return im.stats;
}

PipelineStats run_chunk_pipeline(const TierPair& tiers,
                                 std::span<std::byte> data,
                                 const PipelineConfig& config,
                                 const ComputeFn& compute) {
  ChunkPipelineStepper stepper(tiers, data, config, compute);
  while (stepper.step()) {
  }
  return stepper.finish();
}

PipelineStats run_chunk_pipeline(DualSpace& space,
                                 std::span<std::byte> data,
                                 const PipelineConfig& config,
                                 const ComputeFn& compute) {
  return run_chunk_pipeline(space.tier_pair(), data, config, compute);
}

TieredPipelineStats run_tiered_pipeline(MemoryHierarchy& hierarchy,
                                        std::span<std::byte> data,
                                        const TieredPipelineConfig& config,
                                        const ComputeFn& compute) {
  MLM_REQUIRE(compute != nullptr, "compute callback required");
  MLM_REQUIRE(hierarchy.tier_count() >= 2,
              "tiered pipeline needs at least two tiers");
  const std::size_t levels = hierarchy.pair_count();

  TieredPipelineStats stats;
  stats.levels.resize(levels);

  std::vector<PipelineConfig> cfgs(levels);
  for (std::size_t l = 0; l < levels && l < config.levels.size(); ++l) {
    cfgs[l] = config.levels[l];
  }
  if (config.scheduler != nullptr) {
    for (PipelineConfig& cfg : cfgs) cfg.scheduler = config.scheduler;
  }
  Stopwatch epoch;
  if (config.trace != nullptr) {
    for (std::size_t l = 0; l < levels; ++l) {
      cfgs[l].trace.writer = config.trace;
      cfgs[l].trace.track_base = static_cast<std::uint32_t>(3 * l);
      cfgs[l].trace.label = "L" + std::to_string(l) + " ";
      cfgs[l].trace.epoch = &epoch;
      // Name the three stage tracks after the tier pair they move
      // data between, e.g. "L0 nvm->ddr copy-in".
      const std::string pair_name = hierarchy.tier_config(l).name + "->" +
                                    hierarchy.tier_config(l + 1).name;
      config.trace->set_track_name(cfgs[l].trace.track_base,
                                   "L" + std::to_string(l) + " " +
                                       pair_name + " copy-in");
      config.trace->set_track_name(cfgs[l].trace.track_base + 1,
                                   "L" + std::to_string(l) + " " +
                                       hierarchy.tier_config(l + 1).name +
                                       " compute");
      config.trace->set_track_name(cfgs[l].trace.track_base + 2,
                                   "L" + std::to_string(l) + " " +
                                       pair_name + " copy-out");
    }
  }

  std::function<void(std::size_t, std::span<std::byte>)> run_level =
      [&](std::size_t level, std::span<std::byte> span) {
        ComputeFn stage;
        if (level + 1 < levels) {
          // A failure in a nested level is annotated with the outer
          // chunk that was being streamed when it happened, so a tiered
          // error chain reads outermost-context-last.
          stage = [&run_level, &hierarchy, level](
                      std::span<std::byte> chunk, Executor&,
                      std::size_t outer_chunk) {
            try {
              run_level(level + 1, chunk);
            } catch (Error& e) {
              e.with_frame({"tiered_level_" + std::to_string(level + 1),
                            static_cast<std::int64_t>(outer_chunk),
                            hierarchy.tier_config(level + 1).name, "", ""});
              throw;
            }
          };
        } else {
          stage = compute;
        }
        stats.levels[level].merge(
            run_chunk_pipeline(hierarchy.pair(level), span, cfgs[level],
                               stage));
      };
  run_level(0, data);
  stats.total_seconds = epoch.elapsed_s();
  return stats;
}

}  // namespace mlm::core
