// AoS vs key/payload-split record layouts (DESIGN.md §11): the two
// merge paths must produce byte-identical output for every input —
// duplicate-heavy ones especially, since stability is what carries the
// identity — across both executors and every affinity policy.  The
// 100-seed digest sweep is the PR's acceptance harness.
#include "mlm/sort/record.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>
#include <vector>

#include "mlm/core/external_sort.h"
#include "mlm/parallel/deterministic_executor.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/sort/split_merge.h"
#include "mlm/support/error.h"

namespace mlm::sort {
namespace {

// gtest test bodies live inside a class with a member Run(), which
// shadows sort::Run; a distinct alias sidesteps the collision.
template <typename T>
using RunView = Run<T>;

template <std::size_t N>
std::vector<Record<N>> make_records(std::size_t n, InputOrder order,
                                    std::uint64_t seed) {
  std::vector<Record<N>> recs(n);
  generate_records<N>(std::span<Record<N>>(recs), order, seed);
  return recs;
}

TEST(GenerateRecords, DeterministicForASeed) {
  const auto a = make_records<8>(256, InputOrder::Random, 7);
  const auto b = make_records<8>(256, InputOrder::Random, 7);
  EXPECT_EQ(record_digest<8>(std::span<const Record16>(a)),
            record_digest<8>(std::span<const Record16>(b)));
  const auto c = make_records<8>(256, InputOrder::Random, 8);
  EXPECT_NE(record_digest<8>(std::span<const Record16>(a)),
            record_digest<8>(std::span<const Record16>(c)));
}

TEST(GenerateRecords, EqualKeysCarryDistinctPayloads) {
  // FewDistinct draws keys from 16 values, so a 256-record input is
  // packed with duplicates; payloads mix in the position, which is what
  // makes layout-identity under duplicates a real assertion.
  const auto recs = make_records<56>(256, InputOrder::FewDistinct, 3);
  bool found_equal_keys = false;
  for (std::size_t i = 0; i + 1 < recs.size() && !found_equal_keys; ++i) {
    for (std::size_t j = i + 1; j < recs.size(); ++j) {
      if (recs[i].key == recs[j].key) {
        found_equal_keys = true;
        EXPECT_NE(recs[i].payload, recs[j].payload);
        break;
      }
    }
  }
  EXPECT_TRUE(found_equal_keys);
}

TEST(RecordLayoutNames, RoundTripAndAliases) {
  EXPECT_EQ(parse_record_layout("aos"), RecordLayout::Aos);
  EXPECT_EQ(parse_record_layout("soa"), RecordLayout::SoaSplit);
  EXPECT_EQ(parse_record_layout("soa_split"), RecordLayout::SoaSplit);
  EXPECT_EQ(parse_record_layout("split"), RecordLayout::SoaSplit);
  EXPECT_THROW(parse_record_layout("csv"), InvalidArgumentError);
  for (RecordLayout layout : kAllRecordLayouts) {
    EXPECT_EQ(parse_record_layout(to_string(layout)), layout);
  }
}

// --- multiway_merge_split vs the AoS reference ------------------------

template <std::size_t N>
std::vector<std::vector<Record<N>>> make_sorted_runs(
    std::size_t k, std::size_t per_run, InputOrder order,
    std::uint64_t seed) {
  std::vector<std::vector<Record<N>>> runs;
  for (std::size_t i = 0; i < k; ++i) {
    auto run = make_records<N>(per_run, order, seed * 31 + i);
    std::stable_sort(run.begin(), run.end());
    runs.push_back(std::move(run));
  }
  return runs;
}

template <std::size_t N>
std::vector<RunView<Record<N>>> views_of(
    const std::vector<std::vector<Record<N>>>& runs) {
  std::vector<RunView<Record<N>>> views;
  for (const auto& r : runs) views.emplace_back(r.data(), r.size());
  return views;
}

class SplitMergeProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, InputOrder>> {
};

TEST_P(SplitMergeProperty, MatchesAosMergeByteForByte) {
  const auto [k, order] = GetParam();
  const std::size_t per_run = 97;
  const auto storage = make_sorted_runs<56>(k, per_run, order, k + 11);
  const auto runs = views_of<56>(storage);

  std::vector<Record64> aos(k * per_run);
  std::vector<Record64> soa(k * per_run);
  multiway_merge(std::span<const RunView<Record64>>(runs),
                 std::span<Record64>(aos));
  multiway_merge_split<56>(std::span<const RunView<Record64>>(runs),
                           std::span<Record64>(soa));
  EXPECT_EQ(std::memcmp(aos.data(), soa.data(),
                        aos.size() * sizeof(Record64)),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SplitMergeProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 7, 16),
                       ::testing::Values(InputOrder::Random,
                                         InputOrder::Reverse,
                                         InputOrder::FewDistinct)));

TEST(SplitMerge, HandlesEmptyAndDegenerateRuns) {
  std::vector<Record16> out;
  multiway_merge_split<8>(std::span<const RunView<Record16>>{},
                          std::span<Record16>(out));

  // Mix of empty and live runs.
  auto storage = make_sorted_runs<8>(3, 20, InputOrder::Random, 5);
  std::vector<RunView<Record16>> runs = views_of<8>(storage);
  runs.insert(runs.begin(), RunView<Record16>{});
  runs.push_back(RunView<Record16>{});
  std::vector<Record16> aos(60);
  std::vector<Record16> soa(60);
  multiway_merge(std::span<const RunView<Record16>>(runs),
                 std::span<Record16>(aos));
  multiway_merge_split<8>(std::span<const RunView<Record16>>(runs),
                          std::span<Record16>(soa));
  EXPECT_EQ(std::memcmp(aos.data(), soa.data(),
                        aos.size() * sizeof(Record16)),
            0);
}

TEST(SplitMerge, RejectsWrongOutputSize) {
  auto storage = make_sorted_runs<8>(2, 10, InputOrder::Random, 1);
  const auto runs = views_of<8>(storage);
  std::vector<Record16> out(19);
  EXPECT_THROW(multiway_merge_split<8>(std::span<const RunView<Record16>>(runs),
                                       std::span<Record16>(out)),
               InvalidArgumentError);
}

// --- sort_records: layout identity across executors -------------------

class SortRecordsProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, InputOrder>> {
};

TEST_P(SortRecordsProperty, LayoutsAgreeWithStableReference) {
  const auto [n, order] = GetParam();
  const auto input = make_records<56>(n, order, n * 7 + 3);

  auto expect = input;
  std::stable_sort(expect.begin(), expect.end());

  ThreadPool pool(4);
  std::vector<Record64> scratch(n);
  for (RecordLayout layout : kAllRecordLayouts) {
    auto data = input;
    sort_records<56>(pool, std::span<Record64>(data),
                     std::span<Record64>(scratch), layout);
    ASSERT_EQ(data.size(), expect.size());
    EXPECT_EQ(std::memcmp(data.data(), expect.data(),
                          n * sizeof(Record64)),
              0)
        << "layout " << to_string(layout) << " diverged from the stable "
        << "reference on " << to_string(order) << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SortRecordsProperty,
    ::testing::Combine(::testing::Values(0, 1, 2, 100, 1024, 5000),
                       ::testing::Values(InputOrder::Random,
                                         InputOrder::Reverse,
                                         InputOrder::Sorted,
                                         InputOrder::NearlySorted,
                                         InputOrder::FewDistinct)));

// The PR's acceptance harness: 100 seeds, both layouts, both executors,
// every affinity policy — one digest per seed, no exceptions.
TEST(SortRecordsSweep, HundredSeedsDigestIdenticalEverywhere) {
  constexpr std::size_t kN = 512;
  const Topology topo = synthetic_topology(2, 2);
  ThreadPool plain_pool(4);
  std::vector<Record16> scratch(kN);

  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    // Duplicate-heavy on every third seed: stability does real work.
    const InputOrder order = seed % 3 == 0 ? InputOrder::FewDistinct
                                           : InputOrder::Random;
    const auto input = make_records<8>(kN, order, seed);

    auto reference = input;
    sort_records<8>(plain_pool, std::span<Record16>(reference),
                    std::span<Record16>(scratch), RecordLayout::Aos);
    const std::uint64_t want =
        record_digest<8>(std::span<const Record16>(reference));

    for (RecordLayout layout : kAllRecordLayouts) {
      // Deterministic executor (seeded schedule, no real threads).
      {
        DeterministicScheduler sched(seed);
        DeterministicExecutor det(sched, 4, "det-sort");
        auto data = input;
        sort_records<8>(det, std::span<Record16>(data),
                        std::span<Record16>(scratch), layout);
        EXPECT_EQ(record_digest<8>(std::span<const Record16>(data)), want)
            << "det seed " << seed << " layout " << to_string(layout);
      }
      // Real pools under every pinning policy: placement is a hint and
      // must never show up in the bytes.
      for (AffinityPolicy policy : kAllAffinityPolicies) {
        const AffinityPlan plan = plan_affinity(policy, topo, 4);
        ThreadPool pool(4, "sweep", plan);
        auto data = input;
        sort_records<8>(pool, std::span<Record16>(data),
                        std::span<Record16>(scratch), layout);
        EXPECT_EQ(record_digest<8>(std::span<const Record16>(data)), want)
            << "seed " << seed << " layout " << to_string(layout)
            << " policy " << to_string(policy);
      }
    }
  }
}

// --- the external (out-of-core) merge and sorter dispatch --------------

TEST(ExternalSplitMerge, MatchesAosExternalMerge) {
  ThreadPool pool(4);
  MemorySpace staging("stage", MemKind::DDR, 0);  // unlimited

  const auto storage = make_sorted_runs<56>(5, 333, InputOrder::FewDistinct, 9);
  const auto runs = views_of<56>(storage);
  std::vector<Record64> aos(5 * 333);
  std::vector<Record64> soa(5 * 333);

  core::external_multiway_merge(pool, staging,
                                std::span<const RunView<Record64>>(runs),
                                std::span<Record64>(aos), 64);
  core::external_multiway_merge_split<56>(
      pool, staging, std::span<const RunView<Record64>>(runs),
      std::span<Record64>(soa), 64);

  EXPECT_EQ(std::memcmp(aos.data(), soa.data(),
                        aos.size() * sizeof(Record64)),
            0);
  // All staging returned on both paths.
  EXPECT_EQ(staging.stats().used_bytes, 0u);
}

TEST(ExternalSorter, MergeLayoutDispatchIsByteIdentical) {
  // Small three-level machine so the outer merge actually runs.
  HierarchyConfig hier_cfg;
  hier_cfg.mode = McdramMode::Flat;
  hier_cfg.tiers = {TierConfig{"nvm", MemKind::NVM, 0},
                    TierConfig{"ddr", MemKind::DDR, 256 * 1024},
                    TierConfig{"mcdram", MemKind::MCDRAM, 64 * 1024}};

  const std::size_t n = (1024 * 1024) / sizeof(Record64);  // 4x DDR
  const auto input = make_records<56>(n, InputOrder::FewDistinct, 21);

  std::vector<std::vector<Record64>> results;
  for (RecordLayout layout : kAllRecordLayouts) {
    MemoryHierarchy hier(hier_cfg);
    ThreadPool pool(4);
    SpaceBuffer<Record64> data(hier.tier(0), n);
    std::copy(input.begin(), input.end(), data.data());

    core::ExternalSortConfig cfg;
    cfg.inner.variant = core::MlmVariant::Flat;
    cfg.merge_layout = layout;
    core::ExternalMlmSorter<Record64> sorter(hier, pool, cfg);
    const core::ExternalSortStats stats =
        sorter.sort(std::span<Record64>(data.data(), n));
    EXPECT_TRUE(stats.external_merge_ran) << to_string(layout);

    results.emplace_back(data.data(), data.data() + n);
    EXPECT_TRUE(std::is_sorted(results.back().begin(),
                               results.back().end()));
  }
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(std::memcmp(results[0].data(), results[1].data(),
                        n * sizeof(Record64)),
            0)
      << "merge_layout changed the sorted bytes";
}

}  // namespace
}  // namespace mlm::sort
