// Double-level chunking: sorting NVM-resident data larger than DDR
// (the paper's §6 extension: "now there may be double levels of
// chunking to consider").
//
// ExternalMlmSorter applies MLM-sort's recipe one level down:
//
//   1. divide the NVM-resident input into DDR-sized "outer chunks",
//   2. stage each outer chunk into DDR and sort it there with the
//      two-level MlmSorter (which itself chunks through MCDRAM — the
//      double chunking),
//   3. write each sorted run back to NVM,
//   4. finish with a block-buffered external k-way merge
//      (external_multiway_merge): the classic out-of-core merge of §2.2,
//      reading run blocks into DDR staging buffers and writing merged
//      output blocks back — parallelized by exact multisequence
//      partitioning of the output.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "mlm/core/adapt_seam.h"
#include "mlm/core/degrade.h"
#include "mlm/core/mlm_sort.h"
#include "mlm/fault/fault.h"
#include "mlm/memory/memory_hierarchy.h"
#include "mlm/parallel/parallel_for.h"
#include "mlm/parallel/parallel_memcpy.h"
#include "mlm/sort/loser_tree.h"
#include "mlm/sort/multiway_merge.h"
#include "mlm/sort/record.h"
#include "mlm/support/cache_line.h"
#include "mlm/support/error.h"
#include "mlm/support/stopwatch.h"
#include "mlm/support/trace.h"

namespace mlm::core {

namespace external_sort_detail {
// One static site per sorter phase (mlm/fault/fault.h); a query is a
// single relaxed atomic load unless a plan is installed.
inline fault::FaultSite& stage_in_site() {
  static fault::FaultSite site(fault::sites::kExternalSortStageIn);
  return site;
}
inline fault::FaultSite& inner_sort_site() {
  static fault::FaultSite site(fault::sites::kExternalSortInner);
  return site;
}
inline fault::FaultSite& stage_out_site() {
  static fault::FaultSite site(fault::sites::kExternalSortStageOut);
  return site;
}
inline fault::FaultSite& merge_site() {
  static fault::FaultSite site(fault::sites::kExternalSortMerge);
  return site;
}
}  // namespace external_sort_detail

/// Block-buffered k-way merge of far-resident sorted runs into a
/// far-resident output, staging through `staging` (DDR).  Each worker
/// merges an exact slice of the output (multisequence partitioning)
/// using k block-sized input windows and one output block from staging.
///
/// `block_elements` — elements per staging block; the call needs
/// parts * (k + 1) * block_elements elements of staging capacity, where
/// parts <= pool.size() is chosen to fit.
template <typename T, typename Comp = std::less<>>
void external_multiway_merge(Executor& pool, MemorySpace& staging,
                             std::span<const mlm::sort::Run<T>> runs,
                             std::span<T> out,
                             std::size_t block_elements, Comp comp = {}) {
  using mlm::sort::Run;
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  MLM_REQUIRE(out.size() == total, "output size must equal total runs");
  MLM_REQUIRE(block_elements >= 1, "block must hold at least one element");
  if (total == 0) return;

  const std::size_t k = runs.size();
  // Fit the per-part staging footprint: (k input blocks + 1 output
  // block) per part, each rounded up to the space's cache-line
  // allocation granularity.
  const std::size_t block_bytes =
      round_up(block_elements * sizeof(T), kCacheLineBytes);
  const std::size_t per_part_bytes = (k + 1) * block_bytes;
  std::size_t parts = std::min(pool.size(),
                               std::max<std::size_t>(total / 4096, 1));
  if (!staging.unlimited()) {
    const std::size_t cap = staging.stats().free_bytes();
    MLM_REQUIRE(per_part_bytes <= cap,
                "staging space cannot hold even one part's merge blocks");
    parts = std::min(parts, cap / per_part_bytes);
  }
  parts = std::max<std::size_t>(parts, 1);

  // Exact output split points per part.
  std::vector<std::vector<std::size_t>> bounds(parts + 1);
  bounds[0].assign(k, 0);
  for (std::size_t p = 1; p < parts; ++p) {
    bounds[p] = mlm::sort::multiseq_partition(runs, total * p / parts, comp);
  }
  bounds[parts].resize(k);
  for (std::size_t i = 0; i < k; ++i) bounds[parts][i] = runs[i].size();

  parallel_for(pool, 0, parts, [&](std::size_t p) {
    // Per-run far cursors for this part's slice.
    struct Cursor {
      const T* next;
      const T* end;
    };
    std::vector<Cursor> cursors(k);
    std::size_t out_begin = 0;
    for (std::size_t i = 0; i < k; ++i) {
      cursors[i] = {runs[i].data() + bounds[p][i],
                    runs[i].data() + bounds[p + 1][i]};
      out_begin += bounds[p][i];
    }

    // Staging blocks: k input windows + 1 output block.
    std::vector<SpaceBuffer<T>> in_blocks;
    in_blocks.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      in_blocks.emplace_back(staging, block_elements);
    }
    SpaceBuffer<T> out_block(staging, block_elements);

    // Window state: [win_cur, win_end) inside in_blocks[i].
    std::vector<std::pair<std::size_t, std::size_t>> win(k, {0, 0});
    auto refill = [&](std::size_t i) {
      const auto avail = static_cast<std::size_t>(cursors[i].end -
                                                  cursors[i].next);
      const std::size_t n = std::min(avail, block_elements);
      std::copy(cursors[i].next, cursors[i].next + n,
                in_blocks[i].data());
      cursors[i].next += n;
      win[i] = {0, n};
    };
    for (std::size_t i = 0; i < k; ++i) refill(i);

    // Loser tree over the staged windows; when a window drains we
    // refill it from far memory and rebuild (refills are rare:
    // total/block_elements per part).
    T* far_out = out.data() + out_begin;
    std::size_t out_fill = 0;
    auto flush_out = [&] {
      std::copy(out_block.data(), out_block.data() + out_fill, far_out);
      far_out += out_fill;
      out_fill = 0;
    };

    mlm::sort::LoserTree<const T*, Comp> lt(k, comp);
    auto reseat = [&] {
      for (std::size_t i = 0; i < k; ++i) {
        lt.set_run(i, in_blocks[i].data() + win[i].first,
                   in_blocks[i].data() + win[i].second);
      }
      lt.init();
    };
    reseat();
    // pop_streak extracts whole runs of elements from one staged window
    // per call (batched merge kernel); the streak boundary is exactly
    // where window-drain bookkeeping must happen, so the per-element
    // drain checks of the old loop disappear.  Full output blocks are
    // flushed eagerly, so the streak always has >= 1 element of space.
    while (!lt.empty()) {
      std::size_t src = 0;
      const std::size_t got = lt.pop_streak(
          out_block.data() + out_fill, block_elements - out_fill, src);
      out_fill += got;
      win[src].first += got;
      if (out_fill == block_elements) flush_out();
      if (win[src].first == win[src].second &&
          cursors[src].next != cursors[src].end) {
        // Window drained but far data remains: refill and rebuild.
        refill(src);
        reseat();
      }
    }
    flush_out();
  });
}

/// Key/payload-split variant of external_multiway_merge for Record<N>
/// runs (mlm/sort/record.h, key-ascending order only): each staged
/// input window additionally extracts a dense 8-byte key mirror, the
/// loser tree merges the mirrors, and the records behind every emitted
/// streak are copied window -> output block in one contiguous memcpy.
/// The tree therefore touches sizeof(key) instead of sizeof(Record)
/// bytes per comparison; payloads move exactly once per staging hop.
/// Output is byte-identical to the AoS merge (both are stable by
/// (key, run index)).
///
/// Staging cost per part is the same (k + 1) record blocks; the key
/// mirrors are transient host-heap arrays (8/sizeof(Record) of the
/// block bytes — 12.5% for Record64) and deliberately not charged to
/// `staging`, which models the far/near arena budget, not scratch.
template <std::size_t N>
void external_multiway_merge_split(
    Executor& pool, MemorySpace& staging,
    std::span<const mlm::sort::Run<mlm::sort::Record<N>>> runs,
    std::span<mlm::sort::Record<N>> out, std::size_t block_elements,
    CopyMode payload_mode = CopyMode::Auto) {
  using Rec = mlm::sort::Record<N>;
  using mlm::sort::Run;
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  MLM_REQUIRE(out.size() == total, "output size must equal total runs");
  MLM_REQUIRE(block_elements >= 1, "block must hold at least one element");
  if (total == 0) return;

  const std::size_t k = runs.size();
  const std::size_t block_bytes =
      round_up(block_elements * sizeof(Rec), kCacheLineBytes);
  const std::size_t per_part_bytes = (k + 1) * block_bytes;
  std::size_t parts = std::min(pool.size(),
                               std::max<std::size_t>(total / 4096, 1));
  if (!staging.unlimited()) {
    const std::size_t cap = staging.stats().free_bytes();
    MLM_REQUIRE(per_part_bytes <= cap,
                "staging space cannot hold even one part's merge blocks");
    parts = std::min(parts, cap / per_part_bytes);
  }
  parts = std::max<std::size_t>(parts, 1);

  // Same exact output split points as the AoS path (records compare by
  // key with (value, run, position) ties), so the layouts agree element
  // for element.
  std::vector<std::vector<std::size_t>> bounds(parts + 1);
  bounds[0].assign(k, 0);
  for (std::size_t p = 1; p < parts; ++p) {
    bounds[p] = mlm::sort::multiseq_partition(runs, total * p / parts);
  }
  bounds[parts].resize(k);
  for (std::size_t i = 0; i < k; ++i) bounds[parts][i] = runs[i].size();

  parallel_for(pool, 0, parts, [&](std::size_t p) {
    struct Cursor {
      const Rec* next;
      const Rec* end;
    };
    std::vector<Cursor> cursors(k);
    std::size_t out_begin = 0;
    for (std::size_t i = 0; i < k; ++i) {
      cursors[i] = {runs[i].data() + bounds[p][i],
                    runs[i].data() + bounds[p + 1][i]};
      out_begin += bounds[p][i];
    }

    // Staging blocks: k record windows + 1 record output block, plus a
    // transient key mirror per window on the host heap.
    std::vector<SpaceBuffer<Rec>> in_blocks;
    in_blocks.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      in_blocks.emplace_back(staging, block_elements);
    }
    SpaceBuffer<Rec> out_block(staging, block_elements);
    std::vector<std::vector<std::uint64_t>> key_win(
        k, std::vector<std::uint64_t>(block_elements));

    // Window state: [win_cur, win_end) inside in_blocks[i] / key_win[i].
    std::vector<std::pair<std::size_t, std::size_t>> win(k, {0, 0});
    auto refill = [&](std::size_t i) {
      const auto avail = static_cast<std::size_t>(cursors[i].end -
                                                  cursors[i].next);
      const std::size_t n = std::min(avail, block_elements);
      copy_bytes(in_blocks[i].data(), cursors[i].next, n * sizeof(Rec),
                 payload_mode);
      // Extract the key mirror while the freshly staged records are
      // still warm — the only pass that reads them before copy-out.
      for (std::size_t j = 0; j < n; ++j) {
        key_win[i][j] = in_blocks[i].data()[j].key;
      }
      cursors[i].next += n;
      win[i] = {0, n};
    };
    for (std::size_t i = 0; i < k; ++i) refill(i);

    Rec* far_out = out.data() + out_begin;
    std::size_t out_fill = 0;
    auto flush_out = [&] {
      copy_bytes(far_out, out_block.data(), out_fill * sizeof(Rec),
                 payload_mode);
      far_out += out_fill;
      out_fill = 0;
    };

    // The streak keys themselves are throwaway (the records carry
    // them); the merge loop reads keys only.
    std::vector<std::uint64_t> streak(block_elements);

    mlm::sort::LoserTree<const std::uint64_t*> lt(k);
    auto reseat = [&] {
      for (std::size_t i = 0; i < k; ++i) {
        lt.set_run(i, key_win[i].data() + win[i].first,
                   key_win[i].data() + win[i].second);
      }
      lt.init();
    };
    reseat();
    while (!lt.empty()) {
      std::size_t src = 0;
      const std::size_t got = lt.pop_streak(
          streak.data(), block_elements - out_fill, src);
      // The records behind the streak sit contiguously in src's staged
      // window — one memcpy moves them all.
      std::memcpy(out_block.data() + out_fill,
                  in_blocks[src].data() + win[src].first,
                  got * sizeof(Rec));
      out_fill += got;
      win[src].first += got;
      if (out_fill == block_elements) flush_out();
      if (win[src].first == win[src].second &&
          cursors[src].next != cursors[src].end) {
        refill(src);
        reseat();
      }
    }
    flush_out();
  });
}

/// Configuration of the NVM-level sorter.
struct ExternalSortConfig {
  /// Outer (NVM -> DDR) chunk in elements; 0 = as large as DDR allows
  /// (half the free DDR: chunk + inner-sort scratch).
  std::size_t outer_chunk_elements = 0;
  /// Inner sorter configuration (two-level MLM-sort in DDR+MCDRAM).
  /// Its own trace fields route megachunk-level events to a track of the
  /// caller's choosing (the MCDRAM track in external_sort_demo).
  MlmSortConfig inner;
  /// Staging block for the final external merge; 0 = auto from DDR.
  std::size_t merge_block_elements = 0;
  /// Record layout of the final external merge (mlm/sort/record.h).
  /// SoaSplit routes Record<N> element types (sorted by key, the
  /// default comparator) through external_multiway_merge_split; scalar
  /// element types and custom comparators ignore it and take the AoS
  /// path.  Output bytes are identical either way.
  mlm::sort::RecordLayout merge_layout = mlm::sort::RecordLayout::Aos;
  /// Optional trace export: staging and merge spans (the NVM<->DDR
  /// traffic) land on `trace_track`, per-outer-chunk inner-sort spans on
  /// `trace_track + 1`.
  TraceWriter* trace = nullptr;
  std::uint32_t trace_track = 0;
  const Stopwatch* trace_epoch = nullptr;
  /// Recovery ladder (mlm/core/degrade.h): retry transient failures,
  /// halve the outer chunk when the DDR staging buffer does not fit,
  /// and fall the inner sorter back to DDR-only (no MCDRAM) when the
  /// inner sort fails — mirroring HBW_POLICY_PREFERRED.  Defaults off.
  DegradePolicy degrade;
  /// Online retuning seam (mlm/core/adapt_seam.h).  When set, the
  /// stepper reports each completed StageIn -> InnerSort -> StageOut
  /// outer chunk and applies the returned tuning: a chunk-size change
  /// re-chunks the *remaining* input (the final merge handles runs of
  /// any sizes), a copy-thread change sets how many slices the inner
  /// sorter's next overlapped copy-ins post.  Null = fixed configuration.
  TuningHook tuning_hook;
};

struct ExternalSortStats {
  std::size_t outer_chunks = 0;
  std::uint64_t bytes_staged_in = 0;
  std::uint64_t bytes_staged_out = 0;
  bool external_merge_ran = false;
  MlmSortStats last_inner;

  // --- phase breakdown (comparable to knlsim's NvmSortResult) ---
  double staging_seconds = 0.0;  ///< NVM<->DDR outer-chunk copies
  double sorting_seconds = 0.0;  ///< inner (DDR+MCDRAM) sorts
  double merging_seconds = 0.0;  ///< external merge incl. moving home
  double total_seconds = 0.0;

  /// NVM traffic.  Staging contributes one read and one write per outer
  /// chunk, like the simulator; the external merge contributes
  /// 2x total bytes per direction (runs -> scratch, scratch -> home) —
  /// one read+write of the data more than the simulator's merge, which
  /// does not model the scratch-to-home move.
  std::uint64_t nvm_read_bytes = 0;
  std::uint64_t nvm_write_bytes = 0;

  /// Recovery-ladder rungs taken (mlm/core/degrade.h); all zero/empty
  /// on an undisturbed run.
  std::size_t retries = 0;
  std::size_t outer_chunk_halvings = 0;
  /// The inner sorter was recreated DDR-only after an inner-sort
  /// failure (the HBW_POLICY_PREFERRED analogue).
  bool inner_tier_fallback = false;
  std::vector<DegradationEvent> degradations;
  /// What the tuning hook did to this run (all zero without a hook).
  AdaptationStats adaptation;
};

/// Step-boundary snapshot of an ExternalMlmSorter::Stepper — the
/// crash-consistency seam the service layer's CheckpointCodec
/// serializes (mlm/service/checkpoint.h).
///
/// The snapshot names the last *safe redo point*, not the exact phase:
/// chunks [0, next_chunk) have been staged out (their NVM ranges hold
/// sorted runs), and everything from next_chunk on is redone from
/// StageIn.  Redo is idempotent because a chunk's NVM range is always a
/// permutation of itself — re-staging and re-sorting an already-sorted
/// chunk reproduces the same bytes — and because the external merge of
/// sorted runs is idempotent even over a fully merged output (slices of
/// a sorted array are themselves sorted runs).  A restored run's output
/// is therefore digest-identical to an uninterrupted one; only the
/// redone work differs.
struct ExternalSortCheckpoint {
  /// Outer-chunk layout: begin offsets plus the end sentinel
  /// (chunk_begins.back() == element count).  Captured so a restore
  /// redoes exactly the checkpointed layout even after adaptive
  /// re-chunking.
  std::vector<std::size_t> chunk_begins;
  /// First chunk to (re)do; == chunk count once all chunks staged out.
  std::size_t next_chunk = 0;
  /// Chunking finished — redo from the external merge.
  bool merge_phase = false;
  /// The inner sorter had fallen back to DdrOnly (ladder rung 3); the
  /// restored run starts there instead of re-walking the ladder.
  bool inner_tier_fallback = false;
};

/// Sorts NVM-resident data through DDR and MCDRAM with double chunking,
/// on the three tiers of an NVM -> DDR -> MCDRAM MemoryHierarchy whose
/// DDR tier has a capacity limit.
template <typename T, typename Comp = std::less<>>
class ExternalMlmSorter {
 public:
  ExternalMlmSorter(MemoryHierarchy& hierarchy, Executor& pool,
                    ExternalSortConfig config, Comp comp = {})
      : hier_(hierarchy), upper_(hierarchy, 1), pool_(pool),
        config_(config), comp_(comp) {
    MLM_REQUIRE(hierarchy.tier_count() == 3,
                "external sorter needs an NVM -> DDR -> MCDRAM hierarchy");
    // Outer chunks are sized from DDR's free bytes, and the third level
    // exists only for problems larger than DDR.
    MLM_REQUIRE(!hierarchy.tier(1).unlimited(),
                "three-level setting requires a DDR capacity limit");
  }

  /// Resumable form of sort(), the unit the service-layer JobScheduler
  /// drives.  The four sorter phases are explicit steps, and the
  /// staging/sort loop takes one step per phase per outer chunk, so a
  /// sort job can be suspended (and its tenant budgets arbitrated) at
  /// every outer-chunk boundary:
  ///
  ///   per chunk: StageIn -> InnerSort -> StageOut
  ///   then:      Merge -> MoveHome (skipped for a single run)
  ///
  /// Construction performs setup: outer-chunk resolution and the DDR
  /// staging-buffer recovery ladder (retry / halve).  Destroying a
  /// stepper mid-run cancels the sort, releasing its staging buffers;
  /// the input is then in an unspecified permutation of itself.
  /// sort(data) is exactly
  /// `Stepper s{*this, data}; while (s.step()) {} return s.finish();`.
  class Stepper {
   public:
    Stepper(ExternalMlmSorter& sorter, std::span<T> data)
        : s_(sorter), data_(data) {
      try {
        init();
      } catch (Error& e) {
        add_sort_frame(e);
        throw;
      }
    }

    /// Restore a stepper from a step-boundary checkpoint taken against
    /// the same `data` span (whose NVM contents must be the state the
    /// crashed run left behind — a permutation with chunks
    /// [0, next_chunk) sorted in place).  Chunks from `next_chunk` on
    /// are redone; a merge-phase checkpoint redoes the merge.  The
    /// staging-buffer allocation walks the retry rung only — halving
    /// would have to fit the checkpointed layout anyway.
    Stepper(ExternalMlmSorter& sorter, std::span<T> data,
            const ExternalSortCheckpoint& ckpt)
        : s_(sorter), data_(data) {
      try {
        restore(ckpt);
      } catch (Error& e) {
        add_sort_frame(e);
        throw;
      }
    }

    Stepper(const Stepper&) = delete;
    Stepper& operator=(const Stepper&) = delete;

    /// Snapshot the last safe redo point (valid between steps, before
    /// finish()).  Mid-chunk phases round down to the chunk's StageIn:
    /// the chunk's NVM range is untouched until its StageOut completes,
    /// so redoing from StageIn is always consistent.
    ExternalSortCheckpoint checkpoint() const {
      ExternalSortCheckpoint ckpt;
      ckpt.chunk_begins.reserve(chunks_.size() + 1);
      for (const IndexRange& r : chunks_) {
        ckpt.chunk_begins.push_back(r.begin);
      }
      ckpt.chunk_begins.push_back(data_.size());
      ckpt.inner_tier_fallback = stats_.inner_tier_fallback;
      switch (phase_) {
        case Phase::StageIn:
        case Phase::InnerSort:
        case Phase::StageOut:
          ckpt.next_chunk = index_;
          break;
        case Phase::Merge:
        case Phase::MoveHome:
        case Phase::Done:
          ckpt.next_chunk = chunks_.size();
          ckpt.merge_phase = true;
          break;
      }
      return ckpt;
    }

    /// Execute the next phase step.  Returns true while more steps
    /// remain, false once the sort is complete.  Throws the same
    /// structured errors as sort(); a throwing stepper is dead.
    bool step() {
      if (phase_ == Phase::Done) return false;
      try {
        run_step();
      } catch (Error& e) {
        phase_ = Phase::Done;
        add_sort_frame(e);
        throw;
      }
      return phase_ != Phase::Done;
    }

    bool done() const { return phase_ == Phase::Done; }

    /// Outer chunks this sort stages (0 for a trivial input).
    std::size_t outer_chunks() const { return chunks_.size(); }

    /// Close the run and return its statistics.  Call once, after
    /// done().
    ExternalSortStats finish() {
      MLM_CHECK_MSG(phase_ == Phase::Done,
                    "finish() before the sort completed");
      MLM_CHECK_MSG(!finished_, "finish() called twice");
      finished_ = true;
      if (!chunks_.empty()) stats_.total_seconds = total_.elapsed_s();
      return stats_;
    }

   private:
    enum class Phase : std::uint8_t {
      StageIn,   ///< NVM -> DDR copy of outer chunk `index_`
      InnerSort, ///< two-level MLM-sort of the staged chunk
      StageOut,  ///< DDR -> NVM write-back of the sorted run
      Merge,     ///< external k-way merge of all runs into NVM scratch
      MoveHome,  ///< NVM scratch -> home
      Done,
    };

    void add_sort_frame(Error& e) const {
      e.with_frame({"external_sort", -1, s_.nvm().name(), "",
                    std::to_string(data_.size()) + " elements"});
    }

    void init() {
      if (data_.size() <= 1) {
        phase_ = Phase::Done;
        return;
      }
      std::size_t outer =
          std::min(s_.resolve_outer_chunk(), data_.size());

      // Recovery rungs 1+2 for the DDR staging buffer: retry transient
      // exhaustion, then halve the outer chunk until it fits or hits
      // the policy floor (mlm/core/degrade.h).
      const std::size_t floor_elems = std::max<std::size_t>(
          s_.config_.degrade.min_chunk_bytes / sizeof(T), 1);
      for (std::size_t attempt = 0;;) {
        try {
          ddr_buf_.emplace(s_.ddr(), outer);
          break;
        } catch (OutOfMemoryError& e) {
          if (attempt < s_.config_.degrade.max_retries) {
            ++attempt;
            ++stats_.retries;
            s_.record_degradation(stats_, "sort.external.ddr_staging",
                                  "retry", -1, attempt);
            s_.backoff(attempt);
            continue;
          }
          if (s_.config_.degrade.allow_chunk_halving &&
              outer / 2 >= floor_elems) {
            outer /= 2;
            attempt = 0;
            ++stats_.outer_chunk_halvings;
            s_.record_degradation(stats_, "sort.external.ddr_staging",
                                  "chunk_halved", -1, 0);
            continue;
          }
          e.with_frame({"ddr_staging_alloc", -1, s_.ddr().name(),
                        "orchestrator",
                        "outer_chunk_elements=" + std::to_string(outer)});
          throw;
        }
      }

      chunks_ = chunk_ranges(data_.size(), outer);
      stats_.outer_chunks = chunks_.size();
      outer_elems_ = outer;
      inner_.emplace(s_.upper_, s_.pool_, s_.config_.inner, s_.comp_);
    }

    void restore(const ExternalSortCheckpoint& ckpt) {
      if (data_.size() <= 1) {
        phase_ = Phase::Done;
        return;
      }
      MLM_REQUIRE(ckpt.chunk_begins.size() >= 2,
                  "checkpoint carries no chunk layout");
      MLM_REQUIRE(ckpt.chunk_begins.front() == 0 &&
                      ckpt.chunk_begins.back() == data_.size(),
                  "checkpoint chunk layout does not span the input");
      std::size_t max_elems = 0;
      for (std::size_t i = 0; i + 1 < ckpt.chunk_begins.size(); ++i) {
        const std::size_t b = ckpt.chunk_begins[i];
        const std::size_t e = ckpt.chunk_begins[i + 1];
        MLM_REQUIRE(b < e, "checkpoint chunk layout not monotone");
        chunks_.push_back({b, e});
        max_elems = std::max(max_elems, e - b);
      }
      MLM_REQUIRE(ckpt.next_chunk <= chunks_.size(),
                  "checkpoint next_chunk beyond the chunk layout");
      stats_.outer_chunks = chunks_.size();
      outer_elems_ = max_elems;
      stats_.inner_tier_fallback = ckpt.inner_tier_fallback;

      if (ckpt.merge_phase || ckpt.next_chunk >= chunks_.size()) {
        // Every chunk's range holds a sorted run (or the fully merged
        // output, whose slices are also sorted runs) — redo the merge.
        index_ = chunks_.size();
        phase_ = chunks_.size() == 1 ? Phase::Done : Phase::Merge;
        return;
      }

      // Rung 1 only for the staging buffer: the buffer must hold the
      // largest checkpointed chunk to redo it, so halving cannot apply.
      for (std::size_t attempt = 0;;) {
        try {
          ddr_buf_.emplace(s_.ddr(), max_elems);
          break;
        } catch (OutOfMemoryError& e) {
          if (attempt < s_.config_.degrade.max_retries) {
            ++attempt;
            ++stats_.retries;
            s_.record_degradation(stats_, "sort.external.ddr_staging",
                                  "retry", -1, attempt);
            s_.backoff(attempt);
            continue;
          }
          e.with_frame({"ddr_staging_alloc", -1, s_.ddr().name(),
                        "orchestrator",
                        "restore outer_chunk_elements=" +
                            std::to_string(max_elems)});
          throw;
        }
      }
      MlmSortConfig inner_cfg = s_.config_.inner;
      if (ckpt.inner_tier_fallback) {
        inner_cfg.variant = MlmVariant::DdrOnly;
      }
      inner_.emplace(s_.upper_, s_.pool_, inner_cfg, s_.comp_);
      index_ = ckpt.next_chunk;
      phase_ = Phase::StageIn;
    }

    // The adaptive seam (mlm/core/adapt_seam.h), consulted after every
    // completed outer chunk.  Chunk-size decisions re-chunk only the
    // *remaining* input (never past the staging buffer), which is
    // output-transparent: the final k-way merge consumes sorted runs
    // of any sizes.  Copy-thread decisions change how many slices the
    // inner sorter's overlapped copy-ins post from the next chunk on.
    void apply_tuning() {
      if (!s_.config_.tuning_hook) return;
      const IndexRange& done = chunks_[index_ - 1];
      const std::uint64_t bytes = done.size() * sizeof(T);

      StepFeedback fb;
      fb.step = index_ - 1;
      fb.chunk_bytes = done.size() * sizeof(T);
      fb.pools.copy_in = fb.pools.copy_out =
          std::max<std::size_t>(s_.config_.inner.copy_threads, 1);
      fb.pools.compute =
          s_.pool_.size() > 2 * fb.pools.copy_in
              ? s_.pool_.size() - 2 * fb.pools.copy_in
              : 1;
      fb.copy_in_seconds = chunk_in_s_;
      fb.compute_seconds = chunk_sort_s_;
      fb.copy_out_seconds = chunk_out_s_;
      fb.bytes_in = bytes;
      fb.bytes_out = bytes;
      fb.new_degradations = stats_.degradations.size() - hook_degr_;
      hook_degr_ = stats_.degradations.size();

      const StepTuning tuning = s_.config_.tuning_hook(fb);
      ++stats_.adaptation.decisions;
      const bool more = index_ < chunks_.size();

      if (tuning.chunk_bytes != 0 && more) {
        std::size_t elems =
            std::max<std::size_t>(tuning.chunk_bytes / sizeof(T), 1);
        elems = std::min(elems, ddr_buf_->size());
        if (elems != outer_elems_) {
          const std::size_t begin = chunks_[index_].begin;
          const std::vector<IndexRange> tail =
              chunk_ranges(data_.size() - begin, elems);
          chunks_.resize(index_);
          for (const IndexRange& r : tail) {
            chunks_.push_back({r.begin + begin, r.end + begin});
          }
          stats_.outer_chunks = chunks_.size();
          outer_elems_ = elems;
          ++stats_.adaptation.chunk_changes;
        }
      }
      if (tuning.copy_threads != 0 && more && !stats_.inner_tier_fallback &&
          s_.config_.inner.overlap_copy_in &&
          tuning.copy_threads != s_.config_.inner.copy_threads) {
        s_.config_.inner.copy_threads = tuning.copy_threads;
        inner_->set_copy_threads(tuning.copy_threads);
        ++stats_.adaptation.split_changes;
      }
      stats_.adaptation.final_copy_threads = s_.config_.inner.copy_threads;
      stats_.adaptation.final_compute_threads = fb.pools.compute;
      stats_.adaptation.desired_chunk_bytes = outer_elems_ * sizeof(T);
    }

    void run_step() {
      using namespace external_sort_detail;
      const IndexRange& c = chunks_[std::min(index_, chunks_.size() - 1)];
      const std::uint64_t bytes = c.size() * sizeof(T);
      const auto chunk_idx = static_cast<std::int64_t>(index_);

      switch (phase_) {
        case Phase::StageIn: {
          s_.phase_guard(stats_, stage_in_site(), "stage_in", chunk_idx,
                         s_.ddr().name());
          const double t_in = s_.trace_now();
          try {
            parallel_memcpy(s_.pool_, ddr_buf_->data(),
                            data_.data() + c.begin, bytes);
          } catch (Error& e) {
            e.with_frame({"stage_in", chunk_idx, s_.ddr().name(),
                          "pool-worker", ""});
            throw;
          }
          chunk_in_s_ = s_.trace_now() - t_in;
          s_.note_staging(stats_, "stage-in " + std::to_string(index_),
                          t_in);
          stats_.bytes_staged_in += bytes;
          stats_.nvm_read_bytes += bytes;
          phase_ = Phase::InnerSort;
          break;
        }
        case Phase::InnerSort: {
          const double t_sort = s_.trace_now();
          try {
            if (!stats_.inner_tier_fallback) {
              s_.phase_guard(stats_, inner_sort_site(), "inner_sort",
                             chunk_idx, s_.mcdram().name());
            }
            stats_.last_inner =
                inner_->sort(std::span<T>(ddr_buf_->data(), c.size()));
          } catch (Error& e) {
            if (!s_.config_.degrade.allow_tier_fallback ||
                stats_.inner_tier_fallback) {
              e.with_frame({"inner_sort", chunk_idx, s_.mcdram().name(),
                            "orchestrator", ""});
              throw;
            }
            // Rung 3, the HBW_POLICY_PREFERRED analogue: recreate the
            // inner sorter DDR-only and redo this chunk without MCDRAM.
            // The failed sort may have left the staged copy partially
            // permuted, so re-stage from NVM (still the untouched
            // original) first.
            stats_.inner_tier_fallback = true;
            s_.record_degradation(stats_, fault::sites::kExternalSortInner,
                                  "tier_fallback", chunk_idx, 0);
            MlmSortConfig ddr_cfg = s_.config_.inner;
            ddr_cfg.variant = MlmVariant::DdrOnly;
            inner_.emplace(s_.upper_, s_.pool_, ddr_cfg, s_.comp_);
            parallel_memcpy(s_.pool_, ddr_buf_->data(),
                            data_.data() + c.begin, bytes);
            stats_.bytes_staged_in += bytes;
            stats_.nvm_read_bytes += bytes;
            stats_.last_inner =
                inner_->sort(std::span<T>(ddr_buf_->data(), c.size()));
          }
          chunk_sort_s_ = s_.trace_now() - t_sort;
          stats_.sorting_seconds += chunk_sort_s_;
          s_.trace_emit(s_.config_.trace_track + 1,
                        "outer sort " + std::to_string(index_), t_sort);
          phase_ = Phase::StageOut;
          break;
        }
        case Phase::StageOut: {
          s_.phase_guard(stats_, stage_out_site(), "stage_out", chunk_idx,
                         s_.nvm().name());
          const double t_out = s_.trace_now();
          try {
            // Outbound runs are dead to the DDR working set: stream
            // large stage-outs past the cache (bytes are identical
            // either way).
            parallel_memcpy(s_.pool_, data_.data() + c.begin,
                            ddr_buf_->data(), bytes, s_.pool_.size(),
                            CopyMode::Auto);
          } catch (Error& e) {
            e.with_frame({"stage_out", chunk_idx, s_.nvm().name(),
                          "pool-worker", ""});
            throw;
          }
          chunk_out_s_ = s_.trace_now() - t_out;
          s_.note_staging(stats_, "stage-out " + std::to_string(index_),
                          t_out);
          stats_.bytes_staged_out += bytes;
          stats_.nvm_write_bytes += bytes;
          ++index_;
          apply_tuning();
          if (index_ < chunks_.size()) {
            phase_ = Phase::StageIn;
          } else {
            ddr_buf_.reset();  // release before the merge claims blocks
            inner_.reset();
            phase_ = chunks_.size() == 1 ? Phase::Done : Phase::Merge;
          }
          break;
        }
        case Phase::Merge: {
          // External k-way merge of the NVM runs into an NVM scratch.
          s_.phase_guard(stats_, merge_site(), "merge", -1,
                         s_.nvm().name());
          t_merge_ = s_.trace_now();
          try {
            nvm_out_.emplace(s_.nvm(), data_.size());
            std::vector<mlm::sort::Run<T>> runs;
            runs.reserve(chunks_.size());
            for (const IndexRange& r : chunks_) {
              runs.emplace_back(data_.data() + r.begin, r.size());
            }
            const std::size_t block =
                s_.resolve_merge_block(chunks_.size());
            bool merged_split = false;
            if constexpr (mlm::sort::is_record_v<T> &&
                          std::is_same_v<Comp, std::less<>>) {
              if (s_.config_.merge_layout ==
                  mlm::sort::RecordLayout::SoaSplit) {
                external_multiway_merge_split(
                    s_.pool_, s_.ddr(),
                    std::span<const mlm::sort::Run<T>>(runs),
                    std::span<T>(nvm_out_->data(), data_.size()), block);
                merged_split = true;
              }
            }
            if (!merged_split) {
              external_multiway_merge(
                  s_.pool_, s_.ddr(),
                  std::span<const mlm::sort::Run<T>>(runs),
                  std::span<T>(nvm_out_->data(), data_.size()), block,
                  s_.comp_);
            }
            stats_.external_merge_ran = true;
          } catch (Error& e) {
            e.with_frame({"merge", -1, s_.nvm().name(), "pool-worker",
                          std::to_string(chunks_.size()) + " runs"});
            throw;
          }
          phase_ = Phase::MoveHome;
          break;
        }
        case Phase::MoveHome: {
          try {
            parallel_memcpy(s_.pool_, data_.data(), nvm_out_->data(),
                            data_.size() * sizeof(T), s_.pool_.size(),
                            CopyMode::Auto);
          } catch (Error& e) {
            e.with_frame({"merge", -1, s_.nvm().name(), "pool-worker",
                          std::to_string(chunks_.size()) + " runs"});
            throw;
          }
          nvm_out_.reset();
          const std::uint64_t total_bytes = data_.size() * sizeof(T);
          stats_.nvm_read_bytes += 2 * total_bytes;  // runs + re-read
          stats_.nvm_write_bytes += 2 * total_bytes; // scratch + home
          stats_.merging_seconds = s_.trace_now() - t_merge_;
          s_.trace_emit(s_.config_.trace_track, "external merge",
                        t_merge_);
          phase_ = Phase::Done;
          break;
        }
        case Phase::Done:
          break;
      }
    }

    ExternalMlmSorter& s_;
    std::span<T> data_;
    ExternalSortStats stats_;
    Stopwatch total_;
    std::optional<SpaceBuffer<T>> ddr_buf_;
    std::vector<IndexRange> chunks_;
    std::optional<MlmSorter<T, Comp>> inner_;
    std::optional<SpaceBuffer<T>> nvm_out_;
    std::size_t index_ = 0;
    Phase phase_ = Phase::StageIn;
    double t_merge_ = 0.0;
    bool finished_ = false;
    /// Tuning-hook state: per-phase spans of the chunk in flight, the
    /// degradation high-water at the last hook call, and the nominal
    /// outer chunk (elements) currently in force.
    double chunk_in_s_ = 0.0;
    double chunk_sort_s_ = 0.0;
    double chunk_out_s_ = 0.0;
    std::size_t hook_degr_ = 0;
    std::size_t outer_elems_ = 0;
  };

  ExternalSortStats sort(std::span<T> data) {
    Stepper stepper(*this, data);
    while (stepper.step()) {
    }
    return stepper.finish();
  }

 private:
  friend class Stepper;

  MemorySpace& nvm() { return hier_.tier(0); }
  MemorySpace& ddr() { return hier_.tier(1); }
  MemorySpace& mcdram() { return hier_.tier(2); }

  void backoff(std::size_t attempt) const {
    const std::size_t us = config_.degrade.delay_us(attempt);
    if (us == 0) return;
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }

  void record_degradation(ExternalSortStats& stats, std::string site,
                          std::string action, std::int64_t chunk,
                          std::size_t attempt) const {
    stats.degradations.push_back(
        DegradationEvent{std::move(site), std::move(action), chunk,
                         attempt});
  }

  /// Phase-launch fault guard: runs before the phase moves any data, so
  /// a retry re-attempts from a clean state; exhausted retries throw an
  /// error naming the phase, outer chunk, and tier.
  void phase_guard(ExternalSortStats& stats, fault::FaultSite& site,
                   const char* op, std::int64_t chunk,
                   const std::string& tier) const {
    std::size_t attempt = 0;
    while (site.should_fire()) {
      if (attempt < config_.degrade.max_retries) {
        ++attempt;
        ++stats.retries;
        record_degradation(stats, site.name(), "retry", chunk, attempt);
        backoff(attempt);
        continue;
      }
      fault::InjectedFaultError err("injected fault at site '" +
                                    site.name() + "'");
      err.with_frame({op, chunk, tier, "orchestrator",
                      "retries exhausted after " +
                          std::to_string(attempt) + " attempts"});
      throw err;
    }
  }

  double trace_now() const {
    return config_.trace_epoch != nullptr ? config_.trace_epoch->elapsed_s()
                                          : trace_clock_.elapsed_s();
  }
  void trace_emit(std::uint32_t track, const std::string& name,
                  double t0) const {
    if (config_.trace == nullptr) return;
    config_.trace->add_event(name, "external-sort", track, t0,
                             trace_now() - t0);
  }
  void note_staging(ExternalSortStats& stats, const std::string& name,
                    double t0) const {
    stats.staging_seconds += trace_now() - t0;
    trace_emit(config_.trace_track, name, t0);
  }

  std::size_t resolve_outer_chunk() const {
    std::size_t outer = config_.outer_chunk_elements;
    const std::size_t cap = static_cast<std::size_t>(
        hier_.tier(1).stats().free_bytes() / sizeof(T) / 2);
    MLM_CHECK_MSG(cap >= 1, "no DDR capacity for outer chunking");
    if (outer == 0) outer = cap;
    MLM_REQUIRE(outer <= cap,
                "outer chunk plus inner scratch exceed DDR capacity");
    return outer;
  }

  std::size_t resolve_merge_block(std::size_t k) const {
    std::size_t block = config_.merge_block_elements;
    if (block == 0) {
      const std::size_t cap =
          static_cast<std::size_t>(hier_.tier(1).stats().free_bytes());
      // One part's worth must fit even for a single worker — INCLUDING
      // the cache-line allocation round-up the merge applies per block.
      // Carve the byte budget first, snap it down to the granularity,
      // then convert to elements; dividing elements directly used to
      // leave block sizes whose rounded footprint exceeded the staging
      // capacity exactly when the pool had one worker.
      std::size_t block_bytes = cap / ((k + 1) * pool_.size());
      block_bytes = round_down(block_bytes, kCacheLineBytes);
      block = std::max<std::size_t>(block_bytes / sizeof(T), 64);
    }
    return block;
  }

  MemoryHierarchy& hier_;
  DualSpace upper_;  // view over tiers 1..2 for the inner sorter
  Executor& pool_;
  ExternalSortConfig config_;
  Comp comp_;
  Stopwatch trace_clock_;
};

}  // namespace mlm::core
