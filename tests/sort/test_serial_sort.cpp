#include "mlm/sort/serial_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "mlm/sort/input_gen.h"

namespace mlm::sort {
namespace {

using Case = std::tuple<std::size_t, InputOrder>;

class SerialSortProperty : public ::testing::TestWithParam<Case> {
 protected:
  std::vector<std::int64_t> input() const {
    const auto [n, order] = GetParam();
    return make_input(n, order, 42 + n);
  }
};

TEST_P(SerialSortProperty, IntrosortMatchesStdSort) {
  auto v = input();
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  introsort(v.begin(), v.end());
  EXPECT_EQ(v, expect);
}

TEST_P(SerialSortProperty, HeapsortMatchesStdSort) {
  auto v = input();
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  heapsort(v.begin(), v.end());
  EXPECT_EQ(v, expect);
}

TEST_P(SerialSortProperty, InsertionSortMatchesStdSort) {
  const auto [n, order] = GetParam();
  if (n > 2000) GTEST_SKIP() << "quadratic sort, keep it small";
  auto v = input();
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  insertion_sort(v.begin(), v.end());
  EXPECT_EQ(v, expect);
}

TEST_P(SerialSortProperty, DescendingComparator) {
  auto v = input();
  introsort(v.begin(), v.end(), std::greater<>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), std::greater<>{}));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SerialSortProperty,
    ::testing::Combine(
        ::testing::Values(0, 1, 2, 3, 24, 25, 100, 1000, 100000),
        ::testing::Values(InputOrder::Random, InputOrder::Reverse,
                          InputOrder::Sorted, InputOrder::NearlySorted,
                          InputOrder::FewDistinct)),
    [](const auto& info) {
      std::string order = to_string(std::get<1>(info.param));
      order.erase(std::remove(order.begin(), order.end(), '-'),
                  order.end());
      return "n" + std::to_string(std::get<0>(info.param)) + "_" + order;
    });

TEST(SerialSort, AllEqualElements) {
  std::vector<int> v(1000, 7);
  introsort(v.begin(), v.end());
  EXPECT_TRUE(std::all_of(v.begin(), v.end(),
                          [](int x) { return x == 7; }));
}

TEST(SerialSort, TwoElements) {
  std::vector<int> v{2, 1};
  introsort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2}));
}

TEST(SerialSort, QuicksortKillerStillNLogN) {
  // Organ-pipe / many-duplicates patterns that degrade naive quicksort;
  // introsort's depth limit guarantees completion (we just check
  // correctness — a quadratic blowup at this size would time out).
  const std::size_t n = 1 << 17;
  std::vector<std::int64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::int64_t>(std::min(i, n - i));
  }
  introsort(v.begin(), v.end());
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(SerialSort, SortsStringsWithMoves) {
  std::vector<std::string> v{"pear", "apple", "fig", "banana", "date"};
  introsort(v.begin(), v.end());
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_EQ(v.front(), "apple");
}

TEST(SerialSort, SerialSortAliasWorks) {
  auto v = make_input(5000, InputOrder::Random, 1);
  serial_sort(v.begin(), v.end());
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

// serial_sort's branchless path: integral keys under std::less on
// contiguous storage.  Equal integers are bit-identical, so it must
// produce exactly std::sort's output.

static_assert(detail::kBranchlessSortable<std::int64_t*, std::less<>>);
static_assert(detail::kBranchlessSortable<
              std::vector<std::uint8_t>::iterator, std::less<std::uint8_t>>);
static_assert(detail::kBranchlessSortable<std::span<std::int32_t>::iterator,
                                          std::less<>>);
static_assert(!detail::kBranchlessSortable<std::int64_t*, std::greater<>>);
static_assert(!detail::kBranchlessSortable<double*, std::less<>>);
static_assert(!detail::kBranchlessSortable<std::string*, std::less<>>);

template <typename T>
class BranchlessSerialSort : public ::testing::Test {};

using IntegralKeys =
    ::testing::Types<std::int8_t, std::uint8_t, std::int16_t, std::uint16_t,
                     std::int32_t, std::uint32_t, std::int64_t,
                     std::uint64_t>;
TYPED_TEST_SUITE(BranchlessSerialSort, IntegralKeys);

template <typename T>
void expect_matches_std_sort(std::vector<T> v, const std::string& what) {
  std::vector<T> expect = v;
  std::sort(expect.begin(), expect.end());
  serial_sort(v.begin(), v.end());
  EXPECT_EQ(v, expect) << what << " n=" << v.size();
}

TYPED_TEST(BranchlessSerialSort, MatchesStdSortOnEveryInputShape) {
  using T = TypeParam;
  using Lim = std::numeric_limits<T>;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{31}, std::size_t{32}, std::size_t{33},
        std::size_t{1000}, std::size_t{1} << 17}) {
    for (const InputOrder order :
         {InputOrder::Random, InputOrder::Reverse, InputOrder::Sorted,
          InputOrder::NearlySorted, InputOrder::FewDistinct}) {
      const auto wide = make_input(n, order, 7 + n);
      std::vector<T> v(n);
      // Narrowing wraps: Sorted/Reverse become sawtooth runs in 8 bits.
      for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<T>(wide[i]);
      expect_matches_std_sort(v, to_string(order));
    }
    expect_matches_std_sort(std::vector<T>(n, T{5}), "all-equal");
    std::vector<T> two(n), extremes(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t h = (i * 0x9E3779B97F4A7C15ull) >> 29;
      two[i] = static_cast<T>(h & 1);
      const T picks[] = {Lim::min(), Lim::max(), T{0}, T{1},
                         static_cast<T>(Lim::max() - 1)};
      extremes[i] = picks[h % 5];
    }
    expect_matches_std_sort(two, "two-valued");
    expect_matches_std_sort(extremes, "min/max extremes");
  }
}

// McIlroy's adversary ("A Killer Adversary for Quicksort", 1999): keys
// stay undecided ("gas") until a comparison forces them, and the one
// the algorithm keeps comparing (the pivot candidate) is frozen low.
// Driving branchless_quicksort with it yields the input that makes this
// exact pivot sequence as bad as it can be.
struct Adversary {
  std::vector<std::int64_t> val;
  std::int64_t gas;
  std::int64_t solid = 0;
  std::int64_t candidate = 0;
  std::uint64_t comparisons = 0;

  explicit Adversary(std::size_t n)
      : val(n, static_cast<std::int64_t>(n) - 1),
        gas(static_cast<std::int64_t>(n) - 1) {}

  bool less(std::int64_t x, std::int64_t y) {
    ++comparisons;
    if (val[x] == gas && val[y] == gas) val[x == candidate ? x : y] = solid++;
    if (val[x] == gas) {
      candidate = x;
    } else if (val[y] == gas) {
      candidate = y;
    }
    return val[x] < val[y];
  }
};

TEST(BranchlessSerialSort, AdversarialInputStaysNLogN) {
  const std::size_t n = std::size_t{1} << 14;
  Adversary adv(n);
  std::vector<std::int64_t> items(n);
  for (std::size_t i = 0; i < n; ++i) items[i] = static_cast<std::int64_t>(i);
  branchless_quicksort(items.data(), items.data() + n,
                       [&adv](std::int64_t x, std::int64_t y) {
                         return adv.less(x, y);
                       });
  const std::vector<std::int64_t> killer = adv.val;

  // Replaying the killer input makes the same comparisons; the depth
  // limit (heapsort fallback) caps them at O(n log n) where an unbounded
  // quicksort would need ~n^2/2 = 134M.
  std::uint64_t comparisons = 0;
  std::vector<std::int64_t> replay = killer;
  branchless_quicksort(replay.data(), replay.data() + n,
                       [&comparisons](std::int64_t a, std::int64_t b) {
                         ++comparisons;
                         return a < b;
                       });
  EXPECT_EQ(comparisons, adv.comparisons);
  const double n_log_n = static_cast<double>(n) * std::log2(n);
  EXPECT_LT(static_cast<double>(comparisons), 6.0 * n_log_n);

  // And serial_sort (same algorithm, std::less) finishes it correctly.
  expect_matches_std_sort(killer, "adversary");
}

TEST(BranchlessSerialSort, OtherTypesAndComparatorsTakeIntrosort) {
  auto v = make_input(5000, InputOrder::Random, 3);
  serial_sort(v.begin(), v.end(), std::greater<>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), std::greater<>{}));

  std::vector<std::string> words;
  for (std::int64_t x : make_input(500, InputOrder::FewDistinct, 4)) {
    words.push_back("w" + std::to_string(x));
  }
  auto expect = words;
  std::sort(expect.begin(), expect.end());
  serial_sort(words.begin(), words.end());
  EXPECT_EQ(words, expect);

  // Custom comparator on integers: by low byte, then by value.
  auto keys = make_input(3000, InputOrder::Random, 5);
  const auto by_low_byte = [](std::int64_t a, std::int64_t b) {
    return std::make_pair(a & 0xff, a) < std::make_pair(b & 0xff, b);
  };
  auto expect_keys = keys;
  std::sort(expect_keys.begin(), expect_keys.end(), by_low_byte);
  serial_sort(keys.begin(), keys.end(), by_low_byte);
  EXPECT_EQ(keys, expect_keys);
}

}  // namespace
}  // namespace mlm::sort
