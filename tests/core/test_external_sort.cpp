// Tests for double-level chunking: NVM-resident data sorted through
// capacity-limited DDR and MCDRAM (§6 extension).
#include "mlm/core/external_sort.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "mlm/sort/input_gen.h"
#include "mlm/support/error.h"
#include "mlm/support/rng.h"
#include "mlm/support/units.h"

namespace mlm::core {
namespace {

using sort::InputOrder;
using sort::make_input;

// Tiny three-level machine: 512 KiB "MCDRAM", 2 MiB "DDR", unlimited NVM.
HierarchyConfig three_level() {
  HierarchyConfig cfg;
  cfg.mode = McdramMode::Flat;
  cfg.tiers = {TierConfig{"nvm", MemKind::NVM, 0},
               TierConfig{"ddr", MemKind::DDR, MiB(2)},
               TierConfig{"mcdram", MemKind::MCDRAM, KiB(512)}};
  return cfg;
}

TEST(TripleSpace, LevelsHaveExpectedKindsAndCapacities) {
  MemoryHierarchy hier(three_level());
  EXPECT_EQ(hier.tier(0).kind(), MemKind::NVM);
  EXPECT_TRUE(hier.tier(0).unlimited());
  EXPECT_EQ(hier.tier(1).capacity_bytes(), MiB(2));
  EXPECT_EQ(hier.tier(2).capacity_bytes(), KiB(512));
  EXPECT_TRUE(hier.tier_addressable(2));
}

// The external sorter sizes outer chunks from DDR's free bytes, so its
// three-level machine must cap DDR.
TEST(TripleSpace, RequiresDdrLimit) {
  HierarchyConfig cfg = three_level();
  cfg.tiers[1].capacity_bytes = 0;
  MemoryHierarchy hier(cfg);
  ThreadPool pool(1);
  EXPECT_THROW(ExternalMlmSorter<std::int64_t>(hier, pool, {}),
               InvalidArgumentError);
}

class ExternalSortProperty : public ::testing::TestWithParam<
                                 std::tuple<std::size_t, InputOrder>> {};

TEST_P(ExternalSortProperty, SortsNvmResidentData) {
  const auto [n, order] = GetParam();
  MemoryHierarchy hier(three_level());
  ThreadPool pool(4);

  // Data lives in the NVM space.
  SpaceBuffer<std::int64_t> data(hier.tier(0), std::max<std::size_t>(n, 1));
  auto init = make_input(n, order, n * 13 + 1);
  std::copy(init.begin(), init.end(), data.data());
  auto expect = init;
  std::sort(expect.begin(), expect.end());

  ExternalSortConfig cfg;
  cfg.inner.variant = MlmVariant::Flat;
  ExternalMlmSorter<std::int64_t> sorter(hier, pool, cfg);
  const ExternalSortStats stats =
      sorter.sort(std::span<std::int64_t>(data.data(), n));

  EXPECT_TRUE(std::equal(expect.begin(), expect.end(), data.data()));
  if (n * sizeof(std::int64_t) > MiB(1)) {
    // Data exceeds half of DDR: outer chunking engaged.
    EXPECT_GE(stats.outer_chunks, 2u);
    EXPECT_TRUE(stats.external_merge_ran);
    // Inner sorter chunked through the 512 KiB MCDRAM too: double
    // chunking.
    EXPECT_GE(stats.last_inner.megachunks, 2u);
  }
  // All staging returned.
  EXPECT_EQ(hier.tier(1).stats().used_bytes, 0u);
  EXPECT_EQ(hier.tier(2).stats().used_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExternalSortProperty,
    ::testing::Combine(
        // 1M int64 = 8 MiB = 4x DDR = 16x MCDRAM.
        ::testing::Values(0, 1, 1000, 130000, 500000, 1000000),
        ::testing::Values(InputOrder::Random, InputOrder::Reverse,
                          InputOrder::FewDistinct)));

TEST(ExternalSort, ExplicitOuterChunkHonored) {
  MemoryHierarchy hier(three_level());
  ThreadPool pool(2);
  SpaceBuffer<std::int64_t> data(hier.tier(0), 400000);
  auto init = make_input(400000, InputOrder::Random, 3);
  std::copy(init.begin(), init.end(), data.data());

  ExternalSortConfig cfg;
  cfg.outer_chunk_elements = 100000;
  ExternalMlmSorter<std::int64_t> sorter(hier, pool, cfg);
  const auto stats = sorter.sort(std::span<std::int64_t>(data.data(),
                                                         400000));
  EXPECT_EQ(stats.outer_chunks, 4u);
  EXPECT_TRUE(std::is_sorted(data.data(), data.data() + 400000));
}

TEST(ExternalSort, OversizedOuterChunkRejected) {
  MemoryHierarchy hier(three_level());
  ThreadPool pool(2);
  SpaceBuffer<std::int64_t> data(hier.tier(0), 1000);
  ExternalSortConfig cfg;
  // 2 MiB of DDR / 8 B / 2 = 131072 elements max.
  cfg.outer_chunk_elements = 200000;
  ExternalMlmSorter<std::int64_t> sorter(hier, pool, cfg);
  EXPECT_THROW(sorter.sort(std::span<std::int64_t>(data.data(), 1000)),
               InvalidArgumentError);
}

TEST(ExternalMerge, MergesFarRunsThroughTinyBlocks) {
  MemoryHierarchy hier(three_level());
  ThreadPool pool(3);
  // Three sorted far-resident runs.
  const std::size_t run_len = 5000;
  SpaceBuffer<std::int64_t> far(hier.tier(0), 3 * run_len);
  SpaceBuffer<std::int64_t> out(hier.tier(0), 3 * run_len);
  std::vector<std::int64_t> all;
  Xoshiro256ss rng(5);
  for (std::size_t r = 0; r < 3; ++r) {
    std::vector<std::int64_t> v(run_len);
    for (auto& x : v) x = static_cast<std::int64_t>(rng.bounded(100000));
    std::sort(v.begin(), v.end());
    std::copy(v.begin(), v.end(), far.data() + r * run_len);
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());

  std::vector<mlm::sort::Run<std::int64_t>> runs;
  for (std::size_t r = 0; r < 3; ++r) {
    runs.emplace_back(far.data() + r * run_len, run_len);
  }
  // Deliberately tiny blocks: forces many refills and tree rebuilds.
  external_multiway_merge(pool, hier.tier(1),
                          std::span<const mlm::sort::Run<std::int64_t>>(runs),
                          std::span<std::int64_t>(out.data(), 3 * run_len),
                          /*block_elements=*/64);
  EXPECT_TRUE(std::equal(all.begin(), all.end(), out.data()));
  EXPECT_EQ(hier.tier(1).stats().used_bytes, 0u);
}

TEST(ExternalMerge, RejectsBadArguments) {
  MemoryHierarchy hier(three_level());
  ThreadPool pool(1);
  SpaceBuffer<std::int64_t> far(hier.tier(0), 10);
  std::vector<mlm::sort::Run<std::int64_t>> runs{{far.data(), 10}};
  std::vector<std::int64_t> out_wrong(5);
  EXPECT_THROW(external_multiway_merge(
                   pool, hier.tier(1),
                   std::span<const mlm::sort::Run<std::int64_t>>(runs),
                   std::span<std::int64_t>(out_wrong), 64),
               InvalidArgumentError);
  SpaceBuffer<std::int64_t> out(hier.tier(0), 10);
  EXPECT_THROW(external_multiway_merge(
                   pool, hier.tier(1),
                   std::span<const mlm::sort::Run<std::int64_t>>(runs),
                   std::span<std::int64_t>(out.data(), 10), 0),
               InvalidArgumentError);
}

}  // namespace
}  // namespace mlm::core
