// MLM-sort: the paper's multilevel-memory sorting algorithm (Section 4).
//
// The input array (resident in far memory / DDR) is divided into
// MCDRAM-sized "megachunks".  For each megachunk:
//
//   1. copy it into MCDRAM (flat mode only; all threads copy — the paper
//      leaves buffering the megachunk pipeline as future work, which
//      overlap_copy_in implements on the same workers, see below),
//   2. divide it into maximally-sized chunks, one per thread, and sort
//      each chunk with the best available *serial* sort (our
//      serial_sort: a branchless quicksort for integer keys, introsort
//      otherwise; MLM-sort deliberately avoids relying on multithreaded
//      sort scaling to hundreds of cores),
//   3. run a parallel multiway merge of the per-thread runs, writing the
//      sorted megachunk back to far memory (doubling as the copy-out).
//
// A final parallel multiway merge across megachunk runs completes the
// sort; it "does not use the chunking mechanisms or even explicitly take
// advantage of the MCDRAM" (§4).
//
// Variants (Table 1):
//   Flat      — explicit copies into addressable MCDRAM ("MLM-sort")
//   Implicit  — identical structure, no copies; run with the machine in
//               hardware cache mode, megachunk defaults to the whole
//               problem ("MLM-implicit")
//   DdrOnly   — identical structure, MCDRAM unused ("MLM-ddr")
//
// Every copy, sort and merge task runs on the one Executor the sorter is
// given, so a deterministic executor schedules all of them and the
// sorter never uses more threads than that executor has.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <future>
#include <span>
#include <vector>

#include "mlm/memory/dual_space.h"
#include "mlm/parallel/parallel_for.h"
#include "mlm/parallel/parallel_memcpy.h"
#include "mlm/sort/multiway_merge.h"
#include "mlm/sort/serial_sort.h"
#include "mlm/support/error.h"
#include "mlm/support/stopwatch.h"
#include "mlm/support/trace.h"

namespace mlm::core {

/// Which memory strategy MlmSorter uses.
enum class MlmVariant : std::uint8_t { Flat, Implicit, DdrOnly };

const char* to_string(MlmVariant variant);

struct MlmSortConfig {
  MlmVariant variant = MlmVariant::Flat;
  /// Megachunk size in elements.  0 = as large as the near memory allows
  /// (Flat) or the whole problem (Implicit/DdrOnly) — the choices the
  /// paper found best (§4.1, Fig. 7).
  std::size_t megachunk_elements = 0;
  /// Flat only: double-buffer the megachunks so megachunk c+1 is
  /// copied in while megachunk c is sorted — the buffering the paper
  /// leaves as future work (§6: "a slightly different approach might
  /// allow hiding the copy-in latency of the next megachunk").  Halves
  /// the maximum megachunk size.
  bool overlap_copy_in = false;
  /// When overlap_copy_in is set: the most slices each overlapped
  /// copy-in posts on the sorter's executor (parallel_memcpy_slice_count
  /// fits it to the copy size, never below one), i.e. how many of its
  /// workers load megachunk c+1 while the rest sort megachunk c — the
  /// simulator's copy_threads, drawn from the same thread budget.
  std::size_t copy_threads = 2;
  /// Optional trace export: megachunk copy-in and sort+merge spans land
  /// on `trace_track` of `trace` (null = tracing off), timed against
  /// `trace_epoch` (null = a clock local to the sorter).
  TraceWriter* trace = nullptr;
  std::uint32_t trace_track = 0;
  const Stopwatch* trace_epoch = nullptr;
};

/// Per-run statistics for tests and benchmarks.
struct MlmSortStats {
  std::size_t megachunks = 0;
  std::size_t chunks_per_megachunk = 0;
  std::uint64_t bytes_copied_in = 0;
  bool final_merge_ran = false;
  /// How many copy-ins were overlapped with compute (buffered variant).
  std::size_t overlapped_copies = 0;
};

/// Multilevel-memory sorter bound to a memory environment and a worker
/// pool.  One MlmSorter can sort many arrays; scratch is allocated per
/// call and returned to the spaces afterwards.
template <typename T, typename Comp = std::less<>>
class MlmSorter {
 public:
  MlmSorter(DualSpace& space, Executor& pool, MlmSortConfig config,
            Comp comp = {})
      : space_(space), pool_(pool), config_(config), comp_(comp) {
    if (config_.variant == MlmVariant::Flat) {
      MLM_REQUIRE(space.has_addressable_mcdram(),
                  "Flat variant requires a flat/hybrid-mode DualSpace");
    }
  }

  /// Change how many slices the next overlapped copy-in posts (an online
  /// tuner's copy-thread decision between sorts).
  void set_copy_threads(std::size_t copy_threads) {
    config_.copy_threads = copy_threads;
  }

  /// Sort `data` ascending (by comp).  Allocates one DDR scratch array of
  /// data.size() elements, plus (Flat) one MCDRAM megachunk buffer, or
  /// two when overlap_copy_in is set.
  MlmSortStats sort(std::span<T> data) {
    MlmSortStats stats;
    if (data.size() <= 1) {
      stats.megachunks = data.empty() ? 0 : 1;
      return stats;
    }

    const std::size_t mega = resolve_megachunk(data.size());
    const std::vector<IndexRange> megachunks =
        chunk_ranges(data.size(), mega);
    stats.megachunks = megachunks.size();

    // DDR scratch receives the sorted megachunk runs.
    SpaceBuffer<T> scratch(space_.ddr(), data.size());

    run_megachunks(data, scratch, megachunks, stats);

    if (megachunks.size() == 1) {
      // Scratch holds the fully sorted output; move it home.
      parallel_memcpy(pool_, data.data(), scratch.data(),
                      data.size() * sizeof(T));
      return stats;
    }

    // Final multiway merge across megachunk runs, DDR -> DDR.
    std::vector<mlm::sort::Run<T>> runs;
    runs.reserve(megachunks.size());
    for (const IndexRange& mc : megachunks) {
      runs.emplace_back(scratch.data() + mc.begin, mc.size());
    }
    const double t0 = trace_now();
    mlm::sort::parallel_multiway_merge(
        pool_, std::span<const mlm::sort::Run<T>>(runs), data, comp_);
    trace_emit("final merge", t0);
    stats.final_merge_ran = true;
    return stats;
  }

 private:
  double trace_now() const {
    return config_.trace_epoch != nullptr ? config_.trace_epoch->elapsed_s()
                                          : trace_clock_.elapsed_s();
  }
  void trace_emit(const std::string& name, double t0) const {
    if (config_.trace == nullptr) return;
    config_.trace->add_event(name, "mlm-sort", config_.trace_track, t0,
                             trace_now() - t0);
  }

  std::size_t resolve_megachunk(std::size_t n) const {
    std::size_t mega = config_.megachunk_elements;
    if (config_.variant == MlmVariant::Flat) {
      std::size_t cap = static_cast<std::size_t>(
          space_.mcdram().stats().free_bytes() / sizeof(T));
      // Double buffering needs two megachunks resident at once.
      if (config_.overlap_copy_in) cap /= 2;
      MLM_CHECK_MSG(cap >= 1, "no MCDRAM capacity for even one element");
      if (mega == 0) mega = cap;
      MLM_REQUIRE(mega <= cap,
                  "megachunk does not fit in addressable MCDRAM");
    } else if (mega == 0) {
      mega = n;  // Implicit/DdrOnly default: megachunk = whole problem
    }
    return std::min(mega, n);
  }

  /// Sort the (near-resident or in-place) megachunk `work` and merge its
  /// per-thread runs into scratch at [out_begin, out_begin + size).
  void sort_and_merge_megachunk(std::span<T> work, SpaceBuffer<T>& scratch,
                                std::size_t out_begin,
                                MlmSortStats& stats) {
    const std::size_t parts = std::min(pool_.size(), work.size());
    stats.chunks_per_megachunk = parts;
    // Per-thread serial sorts of maximal chunks.
    parallel_for_ranges(pool_, 0, work.size(), [&](IndexRange r) {
      mlm::sort::serial_sort(work.begin() + r.begin, work.begin() + r.end,
                             comp_);
    });
    // Parallel multiway merge of the per-thread runs into DDR scratch
    // (in flat mode this is also the copy-out).
    std::vector<mlm::sort::Run<T>> runs;
    runs.reserve(parts);
    for (const IndexRange& r : partition_all(work.size(), parts)) {
      runs.emplace_back(work.data() + r.begin, r.size());
    }
    mlm::sort::parallel_multiway_merge(
        pool_, std::span<const mlm::sort::Run<T>>(runs),
        std::span<T>(scratch.data() + out_begin, work.size()), comp_);
  }

  /// The megachunk loop.  Unbuffered (the paper's scheme): one near
  /// buffer; all workers copy megachunk c in, then sort and merge it.
  /// Buffered (§6 future work): two near buffers; before megachunk c is
  /// sorted, megachunk c+1's copy-in is posted as copy_threads slices on
  /// the same executor, so those workers load it while the others sort,
  /// and it is joined once megachunk c is merged.
  void run_megachunks(std::span<T> data, SpaceBuffer<T>& scratch,
                      const std::vector<IndexRange>& megachunks,
                      MlmSortStats& stats) {
    const bool flat = config_.variant == MlmVariant::Flat;
    const bool buffered =
        flat && config_.overlap_copy_in && megachunks.size() > 1;
    const std::size_t near_count = buffered ? 2 : flat ? 1 : 0;
    SpaceBuffer<T> near_bufs[2];
    for (std::size_t b = 0; b < near_count; ++b) {
      near_bufs[b] = SpaceBuffer<T>(space_.mcdram(), megachunks.front().size());
    }
    // The copy-in in flight writes a near buffer, so it is joined before
    // the buffers go away, also when a sort throws.
    std::vector<std::future<void>> pending;
    struct JoinPending {
      Executor& pool;
      std::vector<std::future<void>>& futures;
      ~JoinPending() {
        try {
          pool.wait(futures);
        } catch (...) {
        }
      }
    } join_pending{pool_, pending};

    for (std::size_t c = 0; c < megachunks.size(); ++c) {
      const IndexRange& mc = megachunks[c];
      std::span<T> work = data.subspan(mc.begin, mc.size());
      if (flat) {
        T* near = near_bufs[c % near_count].data();
        if (c == 0 || !buffered) {
          const double t0 = trace_now();
          parallel_memcpy(pool_, near, work.data(), mc.size() * sizeof(T));
          trace_emit("mega copy-in " + std::to_string(c), t0);
          stats.bytes_copied_in += mc.size() * sizeof(T);
        }
        work = std::span<T>(near, mc.size());
      }
      if (buffered && c + 1 < megachunks.size()) {
        const IndexRange& next = megachunks[c + 1];
        pending = parallel_memcpy_async(
            pool_, near_bufs[(c + 1) % 2].data(), data.data() + next.begin,
            next.size() * sizeof(T), config_.copy_threads);
        stats.bytes_copied_in += next.size() * sizeof(T);
        ++stats.overlapped_copies;
      }
      const double t1 = trace_now();
      sort_and_merge_megachunk(work, scratch, mc.begin, stats);
      trace_emit("mega sort+merge " + std::to_string(c), t1);
      pool_.wait(pending);
      pending.clear();
    }
  }

  DualSpace& space_;
  Executor& pool_;
  MlmSortConfig config_;
  Comp comp_;
  Stopwatch trace_clock_;
};

}  // namespace mlm::core
