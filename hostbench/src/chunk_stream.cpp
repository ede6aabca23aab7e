// chunk_stream: core::run_chunk_pipeline streams a far-resident int64
// array (1.25 GiB, above 4x a 300 MiB LLC) through a 64 MiB near tier,
// triple-buffered, with one copy-in, two compute and one copy-out
// thread.  The compute stage merges each chunk's two pre-sorted halves
// with the sort layer's merge_two_runs kernel (the paper's §5 merge
// benchmark with repeats = 1).  This is the copy-bound path.
#include <algorithm>

#include "common.h"
#include "mlm/core/chunk_pipeline.h"
#include "mlm/parallel/parallel_for.h"
#include "mlm/parallel/parallel_memcpy.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/sort/merge_kernels.h"
#include "mlm/sort/multiway_merge.h"

namespace hostbench {

namespace {

using Elem = std::int64_t;

/// Fill each chunk of `data` with two ascending halves whose values
/// interleave: both start near 0 and climb by seeded gaps of 0..1023.
void make_halves(mlm::Executor& pool, std::span<Elem> data,
                 std::size_t chunk, std::uint64_t seed) {
  const std::vector<mlm::IndexRange> chunks =
      mlm::chunk_ranges(data.size(), chunk);
  mlm::parallel_for(pool, 0, chunks.size(), [&](std::size_t c) {
    const mlm::IndexRange rg = chunks[c];
    const std::size_t mid = rg.begin + rg.size() / 2;
    for (const mlm::IndexRange half : {mlm::IndexRange{rg.begin, mid},
                                       mlm::IndexRange{mid, rg.end}}) {
      Elem value = 0;
      for (std::size_t i = half.begin; i < half.end; ++i) {
        value += static_cast<Elem>(stream_value(seed, i) & 1023);
        data[i] = value;
      }
    }
  });
}

/// The compute stage: merge the chunk's halves into `scratch` with
/// merge_two_runs, one output slice per compute thread (split points by
/// multiseq_partition), then copy the merged chunk back.
void merge_halves(std::span<Elem> chunk, mlm::Executor& pool,
                  std::span<Elem> scratch, SpanLog* log, std::size_t parent,
                  double* merge_s) {
  using mlm::sort::Run;
  const std::size_t m = chunk.size();
  const std::size_t h = m / 2;
  const Run<Elem> runs[2] = {Run<Elem>(chunk.data(), h),
                             Run<Elem>(chunk.data() + h, m - h)};
  const std::size_t parts = std::min<std::size_t>(pool.size(), m);
  std::vector<std::vector<std::size_t>> bounds(parts + 1);
  bounds[0] = {0, 0};
  for (std::size_t p = 1; p < parts; ++p) {
    bounds[p] = mlm::sort::multiseq_partition(
        std::span<const Run<Elem>>(runs, 2), m * p / parts, std::less<>());
  }
  bounds[parts] = {h, m - h};
  auto merge = [&] {
    mlm::parallel_for(pool, 0, parts, [&](std::size_t p) {
      const std::vector<std::size_t>& lo = bounds[p];
      const std::vector<std::size_t>& hi = bounds[p + 1];
      mlm::sort::merge_two_runs(runs[0].data() + lo[0], runs[0].data() + hi[0],
                                runs[1].data() + lo[1], runs[1].data() + hi[1],
                                scratch.data() + lo[0] + lo[1], std::less<>());
    });
  };
  if (log != nullptr) {
    *merge_s += timed_span(*log, "merge_two_runs", "sort", parent,
                           [&](std::size_t) { merge(); });
  } else {
    merge();
  }
  mlm::parallel_for(pool, 0, parts, [&](std::size_t p) {
    const std::size_t lo = bounds[p][0] + bounds[p][1];
    const std::size_t hi = bounds[p + 1][0] + bounds[p + 1][1];
    std::copy(scratch.data() + lo, scratch.data() + hi, chunk.data() + lo);
  });
}

/// True when every chunk of `out` equals std::merge of that chunk's
/// halves in `in`.
bool chunks_merged(std::span<const Elem> in, std::span<const Elem> out,
                   std::size_t chunk) {
  std::vector<Elem> expected(chunk);
  for (const mlm::IndexRange rg : mlm::chunk_ranges(in.size(), chunk)) {
    const std::size_t mid = rg.begin + rg.size() / 2;
    std::merge(in.begin() + rg.begin, in.begin() + mid, in.begin() + mid,
               in.begin() + rg.end, expected.begin());
    if (!std::equal(expected.begin(), expected.begin() + rg.size(),
                    out.begin() + rg.begin)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result run_chunk_stream(const Options& opt, SpanLog& spans) {
  Result r;
  // Full size: 160 Mi int64 (1.25 GiB) through a 64 MiB near tier, so
  // 16 MiB chunks (three pipeline buffers plus the merge scratch).
  // Self-test: 1 Mi + 1000 elements through 512 KiB, short last chunk.
  const std::size_t n = opt.selftest ? (std::size_t{1} << 20) + 1000
                                     : std::size_t{160} << 20;
  const std::uint64_t near_bytes =
      opt.selftest ? std::uint64_t{512} << 10 : std::uint64_t{64} << 20;
  const std::size_t chunk = near_bytes / 4 / sizeof(Elem);
  const std::size_t bytes = n * sizeof(Elem);
  const std::size_t expected_chunks = (n + chunk - 1) / chunk;

  mlm::DualSpaceConfig dcfg;
  dcfg.mode = mlm::McdramMode::Flat;
  dcfg.mcdram_bytes = near_bytes;
  mlm::DualSpace space(dcfg);
  // Untimed helpers only: input generation and restoring the input
  // between passes.
  mlm::ThreadPool helpers(4, "stream-setup");

  mlm::SpaceBuffer<Elem> input(space.ddr(), n);
  mlm::SpaceBuffer<Elem> data(space.ddr(), n);
  make_halves(helpers, std::span<Elem>(input.data(), n), chunk, opt.seed);

  mlm::core::PipelineConfig pcfg;
  pcfg.chunk_bytes = chunk * sizeof(Elem);
  pcfg.pools.copy_in = 1;
  pcfg.pools.compute = 2;
  pcfg.pools.copy_out = 1;
  pcfg.buffering = mlm::core::Buffering::Triple;

  // With a span log, the compute stage's merge kernel is traced under
  // span `parent`.
  auto pass = [&](SpanLog* log, std::size_t parent, double* merge_s) {
    // The merge scratch lives in the near tier next to the buffers.
    mlm::SpaceBuffer<Elem> scratch(space.mcdram(), chunk);
    return mlm::core::run_chunk_pipeline_typed<Elem>(
        space, std::span<Elem>(data.data(), n), pcfg,
        [&](std::span<Elem> c, mlm::Executor& pool, std::size_t) {
          merge_halves(c, pool, std::span<Elem>(scratch.data(), c.size()),
                       log, parent, merge_s);
        });
  };
  auto restore = [&] {
    mlm::parallel_memcpy(helpers, data.data(), input.data(), bytes);
  };
  // Touch the working set, then one warm-up pass.
  restore();
  pass(nullptr, kNoParent, nullptr);
  const double setup_s = process_seconds();

  std::vector<mlm::core::PipelineStats> stats;
  const std::vector<double> rep_s = repeat_for(
      opt.trace ? opt.seconds / 2 : opt.seconds, 3, [&](std::size_t) {
        restore();
        const mlm::Stopwatch clock;
        stats.push_back(pass(nullptr, kNoParent, nullptr));
        const double s = clock.elapsed_s();
        const mlm::core::PipelineStats& st = stats.back();
        r.check(st.bytes_copied_in == bytes && st.bytes_copied_out == bytes,
                "PipelineStats bytes copied in and out equal the array bytes");
        r.check(st.chunks == expected_chunks, "pipeline ran every chunk");
        return s;
      });
  const double peak_rss = peak_rss_mib();
  r.attempted = rep_s.size() * expected_chunks;
  const double pass_s = median(rep_s);
  const double stream_gib_per_s = bytes / 1073741824.0 / pass_s;
  r.check(chunks_merged(std::span<const Elem>(input.data(), n),
                        std::span<const Elem>(data.data(), n), chunk),
          "every chunk equals std::merge of its input halves");
  if (opt.selftest) {
    // Probe: a chunk the pipeline skipped (left as its input) must be
    // caught.
    const std::size_t c = expected_chunks / 2;
    std::vector<Elem> saved(data.begin() + c * chunk,
                            data.begin() + (c + 1) * chunk);
    std::copy(input.begin() + c * chunk, input.begin() + (c + 1) * chunk,
              data.begin() + c * chunk);
    r.check(!chunks_merged(std::span<const Elem>(input.data(), n),
                           std::span<const Elem>(data.data(), n), chunk),
            "probe: the output check catches one skipped chunk");
    std::copy(saved.begin(), saved.end(), data.begin() + c * chunk);
  }

  if (opt.trace) {
    auto med = [&](auto field) {
      std::vector<double> v;
      for (const mlm::core::PipelineStats& st : stats) v.push_back(field(st));
      return median(v);
    };
    const double in_busy =
        med([](const auto& st) { return st.copy_in_seconds; });
    const double compute_busy =
        med([](const auto& st) { return st.compute_seconds; });
    const double out_busy =
        med([](const auto& st) { return st.copy_out_seconds; });
    const double step_sum = med([](const auto& st) {
      double sum = 0.0;
      for (const double s : st.step_seconds) sum += s;
      return sum;
    });
    const double overlap = med([](const auto& st) {
      return (st.copy_in_seconds + st.compute_seconds + st.copy_out_seconds) /
             st.total_seconds;
    });

    // Achievable copy rate: parallel_memcpy alone with the copy-in
    // pool's thread count, far array -> one near-tier chunk buffer.
    std::vector<double> copy_s;
    {
      mlm::ThreadPool copy_pool(pcfg.pools.copy_in, "memcpy-probe");
      mlm::SpaceBuffer<Elem> near_buf(space.mcdram(), chunk);
      for (int i = 0; i < 3; ++i) {
      copy_s.push_back(timed_span(
          spans, "parallel_memcpy.probe", "parallel", kNoParent,
          [&](std::size_t) {
            for (const mlm::IndexRange rg : mlm::chunk_ranges(n, chunk)) {
              mlm::parallel_memcpy(copy_pool, near_buf.data(),
                                   data.data() + rg.begin,
                                   rg.size() * sizeof(Elem));
            }
          }));
      }
    }
    const double memcpy_gib_per_s = bytes / 1073741824.0 / median(copy_s);

    // Traced passes: the compute stage's merge kernel timed per chunk.
    std::vector<double> traced_s;
    std::vector<double> merge_rates;
    repeat_for(opt.seconds / 2, 2, [&](std::size_t) {
      restore();
      double merge_s = 0.0;
      const double s = timed_span(spans, "chunk_pipeline.pass", "core",
                                  kNoParent, [&](std::size_t id) {
                                    pass(&spans, id, &merge_s);
                                  });
      traced_s.push_back(s);
      merge_rates.push_back(n / 1e6 / merge_s);
      return s;
    });
    r.attempted += traced_s.size() * expected_chunks;
    r.check(chunks_merged(std::span<const Elem>(input.data(), n),
                          std::span<const Elem>(data.data(), n), chunk),
            "traced pass: every chunk equals std::merge of its halves");

    const mlm::core::PipelineStats& last = stats.back();
    r.metrics.set("sort.two_run_merge_melem_per_s", median(merge_rates));
    r.metrics.set("parallel.copy_in_s", in_busy);
    r.metrics.set("parallel.copy_in_bytes",
                  static_cast<double>(last.bytes_copied_in));
    r.metrics.set("parallel.memcpy_gib_per_s", memcpy_gib_per_s);
    r.metrics.set("core.pipeline.copy_in_busy_s", in_busy);
    r.metrics.set("core.pipeline.compute_busy_s", compute_busy);
    r.metrics.set("core.pipeline.copy_out_busy_s", out_busy);
    r.metrics.set("core.pipeline.stage_overlap", overlap);
    r.metrics.set("core.pipeline.bw_fraction",
                  stream_gib_per_s / memcpy_gib_per_s);
    r.metrics.set("core.pipeline.chunks", static_cast<double>(last.chunks));
    r.metrics.set("core.pipeline.steps", static_cast<double>(last.steps));
    // Layers of a pass are its barrier steps (each as long as its
    // slowest overlapped stage); the residual is pipeline set-up and
    // teardown around them.
    r.metrics.set("trace.residual_s", pass_s - step_sum);
    r.metrics.set("trace.overhead_s", median(traced_s) - pass_s);
  }

  r.metrics.set("setup_s", setup_s);
  r.metrics.set("peak_rss_mib", peak_rss);
  r.metrics.set("throughput_mib_per_s", bytes / 1048576.0 / pass_s);
  r.metrics.set("request_p50_s", pass_s);
  r.notes.push_back("chunk_stream: " + std::to_string(n) + " int64, " +
                    std::to_string(expected_chunks) + " chunks of " +
                    std::to_string(chunk) + ", " +
                    std::to_string(rep_s.size()) + " timed passes, " +
                    "stream_gib_per_s=" + std::to_string(stream_gib_per_s));
  r.notes.push_back(format_times("pass_s", rep_s));
  return r;
}

}  // namespace hostbench
