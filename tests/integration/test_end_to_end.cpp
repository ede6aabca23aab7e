// End-to-end tests: the full library stack on host-scale versions of the
// paper's experiments, with a scaled-down KNL (capacities / 1024,
// bandwidth ratios preserved) so the same code paths run in seconds.
#include <gtest/gtest.h>

#include <algorithm>

#include "mlm/core/merge_bench.h"
#include "mlm/core/mlm_sort.h"
#include "mlm/core/copy_thread_tuner.h"
#include "mlm/machine/knl_config.h"
#include "mlm/memory/memkind_shim.h"
#include "mlm/sort/input_gen.h"

namespace mlm {
namespace {

using core::MlmSortConfig;
using core::MlmSorter;
using core::MlmVariant;
using sort::InputOrder;
using sort::make_input;

// One scaled machine for all end-to-end runs: 16 MiB "MCDRAM".
KnlConfig scaled() { return scaled_knl(1024, 4); }

TEST(EndToEnd, AllVariantsSortDataLargerThanMcdram) {
  const KnlConfig machine = scaled();
  // 4M int64 = 32 MiB = 2x the scaled MCDRAM.
  const std::size_t n = 4 << 20;
  for (MlmVariant variant :
       {MlmVariant::Flat, MlmVariant::Implicit, MlmVariant::DdrOnly}) {
    const McdramMode mode = variant == MlmVariant::Flat
                                ? McdramMode::Flat
                                : (variant == MlmVariant::Implicit
                                       ? McdramMode::ImplicitCache
                                       : McdramMode::DdrOnly);
    DualSpace space(make_dual_space_config(machine, mode));
    ThreadPool pool(machine.total_threads());
    MlmSortConfig cfg;
    cfg.variant = variant;
    auto data = make_input(n, InputOrder::Random, 42);
    const auto cs = sort::checksum(data);
    MlmSorter<std::int64_t> sorter(space, pool, cfg);
    const auto stats = sorter.sort(std::span<std::int64_t>(data));
    EXPECT_TRUE(std::is_sorted(data.begin(), data.end()))
        << core::to_string(variant);
    EXPECT_EQ(sort::checksum(data), cs);
    if (variant == MlmVariant::Flat) {
      // Data (32 MiB) > MCDRAM (16 MiB): chunking must have kicked in.
      EXPECT_GE(stats.megachunks, 2u);
    }
  }
}

TEST(EndToEnd, HybridModeSortWorksWithHalvedScratchpad) {
  const KnlConfig machine = scaled();
  DualSpace space(
      make_dual_space_config(machine, McdramMode::Hybrid, 0.5));
  ThreadPool pool(4);
  MlmSortConfig cfg;
  cfg.variant = MlmVariant::Flat;  // explicit copies into the flat half
  auto data = make_input(2 << 20, InputOrder::Reverse, 7);
  MlmSorter<std::int64_t> sorter(space, pool, cfg);
  const auto stats = sorter.sort(std::span<std::int64_t>(data));
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
  // 16 MiB of data against an 8 MiB flat half: >= 2 megachunks.
  EXPECT_GE(stats.megachunks, 2u);
}

TEST(EndToEnd, TunedMergeBenchmarkRunsWithModelChosenPools) {
  const KnlConfig machine = scaled();
  const std::size_t elements = 2 << 20;
  const double bytes = static_cast<double>(elements) * 8;

  const core::TunedSplit split = core::tune_pools(
      machine, core::TunedWorkload{bytes, 4.0}, machine.total_threads());

  DualSpace space(make_dual_space_config(machine, McdramMode::Flat));
  auto data = make_input(elements, InputOrder::Random, 11);
  core::MergeBenchConfig cfg;
  cfg.elements = elements;
  cfg.copy_threads = split.pools.copy_in;
  cfg.compute_threads = split.pools.compute;
  cfg.repeats = 4;
  const auto result =
      core::run_merge_bench(space, std::span<std::int64_t>(data), cfg);
  EXPECT_GT(result.merges_performed, 0u);
  EXPECT_GT(result.pipeline.chunks, 1u);
  EXPECT_EQ(result.pipeline.bytes_copied_in, bytes);
}

TEST(EndToEnd, MemkindShimBackedSortWorkflow) {
  // The workflow a memkind user would follow: install the MCDRAM space,
  // hbw_malloc a working buffer, sort through it, free, uninstall.
  const KnlConfig machine = scaled();
  DualSpace space(make_dual_space_config(machine, McdramMode::Flat));
  mlm_hbw_set_space(&space.mcdram());
  ASSERT_EQ(mlm_hbw_check_available(), 1);

  const std::size_t chunk = 1 << 18;
  auto data = make_input(chunk * 3, InputOrder::Random, 21);
  auto* buf = static_cast<std::int64_t*>(
      mlm_hbw_malloc(chunk * sizeof(std::int64_t)));
  ASSERT_NE(buf, nullptr);
  // Chunk-sort via the scratchpad, then merge on host.
  for (std::size_t c = 0; c < 3; ++c) {
    std::copy_n(data.data() + c * chunk, chunk, buf);
    sort::serial_sort(buf, buf + chunk);
    std::copy_n(buf, chunk, data.data() + c * chunk);
  }
  mlm_hbw_free(buf);
  mlm_hbw_set_space(nullptr);

  std::vector<std::int64_t> out(data.size());
  std::vector<sort::Run<std::int64_t>> runs;
  for (std::size_t c = 0; c < 3; ++c) {
    runs.emplace_back(data.data() + c * chunk, chunk);
  }
  sort::multiway_merge(std::span<const sort::Run<std::int64_t>>(runs),
                       std::span<std::int64_t>(out));
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

}  // namespace
}  // namespace mlm
