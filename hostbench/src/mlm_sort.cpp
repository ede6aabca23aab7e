// mlm_sort: core::MlmSorter, Flat variant, on random int64 keys (the
// paper's Fig. 6a input) against scaled_knl(1024, 4): a 16 MiB near tier
// under a 384 MiB input, so 24 megachunks and a final merge run.  This
// is the sort-bound path.
#include <algorithm>
#include <thread>

#include "common.h"
#include "mlm/core/mlm_sort.h"
#include "mlm/machine/knl_config.h"
#include "mlm/parallel/parallel_for.h"
#include "mlm/parallel/parallel_memcpy.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/sort/multiway_merge.h"
#include "mlm/sort/serial_sort.h"

namespace hostbench {

namespace {

using Elem = std::int64_t;

struct PhaseTimes {
  double copy_in = 0.0;
  double serial_sort = 0.0;
  double megachunk_merge = 0.0;
  double final_merge = 0.0;
  double total = 0.0;
  std::size_t megachunks = 0;

  double layers() const {
    return copy_in + serial_sort + megachunk_merge + final_merge;
  }
};

/// MlmSorter::sort's unbuffered Flat path, replayed phase by phase on
/// the same megachunk shapes, so that the sorter's fused per-megachunk
/// sort+merge splits into serial sort and merge: parallel_memcpy, then
/// serial_sort per thread range, then parallel_multiway_merge for the
/// megachunk merge and again for the final merge.
PhaseTimes traced_sort(mlm::DualSpace& space, mlm::Executor& pool,
                       std::span<Elem> data, SpanLog& log) {
  using mlm::sort::Run;
  PhaseTimes t;
  const mlm::Stopwatch total;
  ScopedSpan root(log, "mlm_sort.traced_sort", "core");
  const std::size_t n = data.size();
  const std::size_t mega = std::min<std::size_t>(
      space.mcdram().stats().free_bytes() / sizeof(Elem), n);
  const std::vector<mlm::IndexRange> megachunks = mlm::chunk_ranges(n, mega);
  t.megachunks = megachunks.size();
  mlm::SpaceBuffer<Elem> scratch(space.ddr(), n);
  mlm::SpaceBuffer<Elem> near_buf(space.mcdram(), megachunks.front().size());

  for (const mlm::IndexRange& mc : megachunks) {
    ScopedSpan mspan(log, "megachunk", "core", root.id());
    std::span<Elem> work(near_buf.data(), mc.size());
    t.copy_in += timed_span(log, "parallel_memcpy", "parallel", mspan.id(),
                            [&](std::size_t) {
                              mlm::parallel_memcpy(pool, work.data(),
                                                   data.data() + mc.begin,
                                                   mc.size() * sizeof(Elem));
                            });
    t.serial_sort += timed_span(
        log, "serial_sort", "sort", mspan.id(), [&](std::size_t id) {
          mlm::parallel_for_ranges(
              pool, 0, work.size(), [&](mlm::IndexRange r) {
                ScopedSpan thread_span(log, "serial_sort.range", "sort", id);
                mlm::sort::serial_sort(work.begin() + r.begin,
                                       work.begin() + r.end, std::less<>());
              });
        });
    t.megachunk_merge += timed_span(
        log, "megachunk_merge", "sort", mspan.id(), [&](std::size_t) {
          const std::size_t parts = std::min(pool.size(), work.size());
          std::vector<Run<Elem>> runs;
          for (const mlm::IndexRange& r :
               mlm::partition_all(work.size(), parts)) {
            runs.emplace_back(work.data() + r.begin, r.size());
          }
          mlm::sort::parallel_multiway_merge(
              pool, std::span<const Run<Elem>>(runs),
              std::span<Elem>(scratch.data() + mc.begin, mc.size()),
              std::less<>());
        });
  }
  if (megachunks.size() == 1) {
    t.copy_in += timed_span(log, "parallel_memcpy.home", "parallel",
                            root.id(), [&](std::size_t) {
                              mlm::parallel_memcpy(pool, data.data(),
                                                   scratch.data(),
                                                   n * sizeof(Elem));
                            });
  } else {
    t.final_merge = timed_span(
        log, "final_merge", "sort", root.id(), [&](std::size_t) {
          std::vector<Run<Elem>> runs;
          for (const mlm::IndexRange& mc : megachunks) {
            runs.emplace_back(scratch.data() + mc.begin, mc.size());
          }
          mlm::sort::parallel_multiway_merge(
              pool, std::span<const Run<Elem>>(runs), data, std::less<>());
        });
  }
  t.total = total.elapsed_s();
  return t;
}

/// std::sort of `values`, computed apart from the library: four threads
/// std::sort a quarter each, then std::merge joins them.
void reference_sort(std::vector<Elem>& values) {
  const std::size_t n = values.size();
  const std::size_t q[5] = {0, n / 4, n / 2, 3 * n / 4, n};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      std::sort(values.begin() + q[i], values.begin() + q[i + 1]);
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Elem> tmp(n);
  std::thread left([&] {
    std::merge(values.begin(), values.begin() + q[1], values.begin() + q[1],
               values.begin() + q[2], tmp.begin());
  });
  std::merge(values.begin() + q[2], values.begin() + q[3],
             values.begin() + q[3], values.end(), tmp.begin() + q[2]);
  left.join();
  std::merge(tmp.begin(), tmp.begin() + q[2], tmp.begin() + q[2], tmp.end(),
             values.begin());
}

}  // namespace

Result run_mlm_sort(const Options& opt, SpanLog& spans) {
  Result r;
  // Full size: 48 Mi keys (384 MiB, above a 300 MiB LLC) through a
  // 16 MiB near tier.  Self-test: 256 Ki keys through 256 KiB.
  const std::size_t n = opt.selftest ? (std::size_t{1} << 18) + 77
                                     : std::size_t{48} << 20;
  const std::uint64_t scale = opt.selftest ? 65536 : 1024;
  const std::size_t bytes = n * sizeof(Elem);

  const mlm::KnlConfig machine = mlm::scaled_knl(scale, 4);
  mlm::DualSpace space(
      mlm::make_dual_space_config(machine, mlm::McdramMode::Flat));
  mlm::ThreadPool pool(machine.cores, "mlm-sort");
  mlm::core::MlmSortConfig cfg;
  cfg.variant = mlm::core::MlmVariant::Flat;
  mlm::core::MlmSorter<Elem> sorter(space, pool, cfg);

  mlm::SpaceBuffer<Elem> input(space.ddr(), n);
  mlm::SpaceBuffer<Elem> work(space.ddr(), n);
  mlm::parallel_for_ranges(pool, 0, n, [&](mlm::IndexRange rg) {
    for (std::size_t i = rg.begin; i < rg.end; ++i) {
      input[i] = static_cast<Elem>(stream_value(opt.seed, i));
    }
  });
  // Touch the working set, then one warm-up sort.
  mlm::parallel_memcpy(pool, work.data(), input.data(), bytes);
  sorter.sort(std::span<Elem>(work.data(), n));
  const double setup_s = process_seconds();

  const double untraced_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::size_t megachunks = 0;
  const std::vector<double> rep_s =
      repeat_for(untraced_seconds, opt.trace ? 2 : 3, [&](std::size_t) {
        mlm::parallel_memcpy(pool, work.data(), input.data(), bytes);
        const mlm::Stopwatch clock;
        const mlm::core::MlmSortStats stats =
            sorter.sort(std::span<Elem>(work.data(), n));
        const double s = clock.elapsed_s();
        r.check(stats.bytes_copied_in == bytes,
                "MlmSortStats::bytes_copied_in equals the input bytes");
        megachunks = stats.megachunks;
        return s;
      });
  const double peak_rss = peak_rss_mib();
  r.attempted = rep_s.size();
  const double sort_s = median(rep_s);

  if (opt.trace) {
    mlm::SpaceBuffer<Elem> replay(space.ddr(), n);
    std::vector<PhaseTimes> phases;
    repeat_for(opt.seconds / 2, 2, [&](std::size_t) {
      mlm::parallel_memcpy(pool, replay.data(), input.data(), bytes);
      phases.push_back(
          traced_sort(space, pool, std::span<Elem>(replay.data(), n), spans));
      return phases.back().total;
    });
    r.attempted += phases.size();
    r.check(std::equal(replay.begin(), replay.end(), work.begin()),
            "traced replay output equals MlmSorter::sort output");
    auto med = [&](double PhaseTimes::*field) {
      std::vector<double> v;
      for (const PhaseTimes& p : phases) v.push_back(p.*field);
      return median(v);
    };
    std::vector<double> layer_sums;
    for (const PhaseTimes& p : phases) layer_sums.push_back(p.layers());
    const double serial = med(&PhaseTimes::serial_sort);
    const double mmerge = med(&PhaseTimes::megachunk_merge);
    const double fmerge = med(&PhaseTimes::final_merge);
    const double merged = static_cast<double>(n) * (fmerge > 0 ? 2 : 1);
    r.metrics.set("sort.serial_sort_s", serial);
    r.metrics.set("sort.serial_sort_melem_per_s", n / 1e6 / serial);
    r.metrics.set("sort.megachunk_merge_s", mmerge);
    r.metrics.set("sort.final_merge_s", fmerge);
    r.metrics.set("sort.merge_melem_per_s", merged / 1e6 / (mmerge + fmerge));
    r.metrics.set("parallel.copy_in_s", med(&PhaseTimes::copy_in));
    r.metrics.set("parallel.copy_in_bytes", static_cast<double>(bytes));
    r.metrics.set("core.mlm_sort.megachunks",
                  static_cast<double>(phases.front().megachunks));
    r.metrics.set("trace.residual_s", sort_s - median(layer_sums));
    r.metrics.set("trace.overhead_s", med(&PhaseTimes::total) - sort_s);
    r.check(phases.front().megachunks == megachunks,
            "traced replay uses the sorter's megachunk count");
  }

  // Reference: std::sort of the same input, outside all timing.
  std::vector<Elem> expected(input.begin(), input.end());
  reference_sort(expected);
  r.check(std::equal(expected.begin(), expected.end(), work.begin()),
          "MlmSorter::sort output equals std::sort of the input");
  if (opt.selftest) {
    // Probe: one adjacent pair of distinct keys swapped must be caught.
    std::size_t k = n / 2;
    while (k + 1 < n && work[k] == work[k + 1]) ++k;
    std::swap(work[k], work[k + 1]);
    r.check(!std::equal(expected.begin(), expected.end(), work.begin()),
            "probe: the output check catches one swapped element");
    std::swap(work[k], work[k + 1]);
  }

  r.metrics.set("setup_s", setup_s);
  r.metrics.set("peak_rss_mib", peak_rss);
  r.metrics.set("throughput_mib_per_s", bytes / 1048576.0 / sort_s);
  r.metrics.set("request_p50_s", sort_s);
  r.notes.push_back("mlm_sort: " + std::to_string(n) + " int64 keys, " +
                    std::to_string(megachunks) + " megachunks, " +
                    std::to_string(rep_s.size()) + " timed sorts, " +
                    "sort_melem_per_s=" + std::to_string(n / 1e6 / sort_s));
  r.notes.push_back(format_times("sort_s", rep_s));
  return r;
}

}  // namespace hostbench
