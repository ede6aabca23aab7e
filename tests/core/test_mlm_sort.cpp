#include "mlm/core/mlm_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "mlm/parallel/thread_pool.h"
#include "mlm/sort/input_gen.h"
#include "mlm/support/error.h"
#include "mlm/support/units.h"

namespace mlm::core {
namespace {

using mlm::sort::InputOrder;
using mlm::sort::checksum;
using mlm::sort::make_input;

DualSpace make_space(MlmVariant variant, std::uint64_t mcdram = MiB(2)) {
  DualSpaceConfig cfg;
  switch (variant) {
    case MlmVariant::Flat: cfg.mode = McdramMode::Flat; break;
    case MlmVariant::Implicit: cfg.mode = McdramMode::ImplicitCache; break;
    case MlmVariant::DdrOnly: cfg.mode = McdramMode::DdrOnly; break;
  }
  cfg.mcdram_bytes = mcdram;
  return DualSpace(cfg);
}

using Case = std::tuple<MlmVariant, std::size_t, InputOrder>;

class MlmSortProperty : public ::testing::TestWithParam<Case> {};

TEST_P(MlmSortProperty, SortsCorrectlyAndPreservesData) {
  const auto [variant, n, order] = GetParam();
  DualSpace space = make_space(variant);
  ThreadPool pool(4);
  MlmSortConfig cfg;
  cfg.variant = variant;

  auto data = make_input(n, order, n * 7 + static_cast<int>(order));
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  const auto cs = checksum(data);

  MlmSorter<std::int64_t> sorter(space, pool, cfg);
  const MlmSortStats stats = sorter.sort(std::span<std::int64_t>(data));

  EXPECT_EQ(data, expect);
  EXPECT_EQ(checksum(data), cs);
  if (n > 1) EXPECT_GE(stats.megachunks, 1u);
  // All scratch returned.
  EXPECT_EQ(space.ddr().stats().used_bytes, 0u);
  if (variant == MlmVariant::Flat) {
    EXPECT_EQ(space.mcdram().stats().used_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MlmSortProperty,
    ::testing::Combine(
        ::testing::Values(MlmVariant::Flat, MlmVariant::Implicit,
                          MlmVariant::DdrOnly),
        ::testing::Values(0, 1, 2, 1000, 100000, 500000),
        ::testing::Values(InputOrder::Random, InputOrder::Reverse,
                          InputOrder::FewDistinct)));

TEST(MlmSorter, FlatUsesMultipleMegachunksWhenDataExceedsMcdram) {
  // 2 MiB MCDRAM, 500k int64 = ~3.8 MiB of data -> >= 2 megachunks.
  DualSpace space = make_space(MlmVariant::Flat, MiB(2));
  ThreadPool pool(4);
  MlmSortConfig cfg;
  cfg.variant = MlmVariant::Flat;
  auto data = make_input(500000, InputOrder::Random, 3);
  MlmSorter<std::int64_t> sorter(space, pool, cfg);
  const MlmSortStats stats = sorter.sort(std::span<std::int64_t>(data));
  EXPECT_GE(stats.megachunks, 2u);
  EXPECT_TRUE(stats.final_merge_ran);
  EXPECT_EQ(stats.bytes_copied_in, 500000 * sizeof(std::int64_t));
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(MlmSorter, ImplicitDefaultsToSingleMegachunk) {
  DualSpace space = make_space(MlmVariant::Implicit);
  ThreadPool pool(4);
  MlmSortConfig cfg;
  cfg.variant = MlmVariant::Implicit;
  auto data = make_input(300000, InputOrder::Random, 5);
  MlmSorter<std::int64_t> sorter(space, pool, cfg);
  const MlmSortStats stats = sorter.sort(std::span<std::int64_t>(data));
  EXPECT_EQ(stats.megachunks, 1u);
  EXPECT_FALSE(stats.final_merge_ran);
  EXPECT_EQ(stats.bytes_copied_in, 0u);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(MlmSorter, ExplicitMegachunkSizeHonored) {
  DualSpace space = make_space(MlmVariant::DdrOnly);
  ThreadPool pool(4);
  MlmSortConfig cfg;
  cfg.variant = MlmVariant::DdrOnly;
  cfg.megachunk_elements = 100000;
  auto data = make_input(350000, InputOrder::Random, 6);
  MlmSorter<std::int64_t> sorter(space, pool, cfg);
  const MlmSortStats stats = sorter.sort(std::span<std::int64_t>(data));
  EXPECT_EQ(stats.megachunks, 4u);  // 3 full + 1 partial
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(MlmSorter, FlatRejectsMegachunkBiggerThanMcdram) {
  DualSpace space = make_space(MlmVariant::Flat, MiB(1));
  ThreadPool pool(2);
  MlmSortConfig cfg;
  cfg.variant = MlmVariant::Flat;
  cfg.megachunk_elements = MiB(2) / sizeof(std::int64_t);
  auto data = make_input(100000, InputOrder::Random, 8);
  MlmSorter<std::int64_t> sorter(space, pool, cfg);
  EXPECT_THROW(sorter.sort(std::span<std::int64_t>(data)),
               InvalidArgumentError);
}

TEST(MlmSorter, FlatVariantRequiresAddressableMcdram) {
  DualSpace space = make_space(MlmVariant::Implicit);  // cache mode
  ThreadPool pool(2);
  MlmSortConfig cfg;
  cfg.variant = MlmVariant::Flat;
  EXPECT_THROW((MlmSorter<std::int64_t>(space, pool, cfg)),
               InvalidArgumentError);
}

TEST(MlmSorter, CustomComparator) {
  DualSpace space = make_space(MlmVariant::DdrOnly);
  ThreadPool pool(4);
  MlmSortConfig cfg;
  cfg.variant = MlmVariant::DdrOnly;
  auto data = make_input(50000, InputOrder::Random, 10);
  MlmSorter<std::int64_t, std::greater<>> sorter(space, pool, cfg,
                                                 std::greater<>{});
  sorter.sort(std::span<std::int64_t>(data));
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end(), std::greater<>{}));
}

TEST(MlmVariant, Names) {
  EXPECT_STREQ(to_string(MlmVariant::Flat), "flat");
  EXPECT_STREQ(to_string(MlmVariant::Implicit), "implicit");
  EXPECT_STREQ(to_string(MlmVariant::DdrOnly), "ddr-only");
}

}  // namespace
}  // namespace mlm::core
