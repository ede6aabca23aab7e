#include "mlm/parallel/parallel_memcpy.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "mlm/parallel/thread_pool.h"
#include "mlm/support/error.h"
#include "mlm/support/rng.h"

namespace mlm {
namespace {

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<unsigned char> v(n);
  Xoshiro256ss rng(seed);
  for (auto& b : v) b = static_cast<unsigned char>(rng.next());
  return v;
}

class ParallelMemcpySize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelMemcpySize, CopiesExactly) {
  const std::size_t n = GetParam();
  ThreadPool pool(4);
  const auto src = random_bytes(n, n + 1);
  std::vector<unsigned char> dst(n, 0xEE);
  parallel_memcpy(pool, dst.data(), src.data(), n);
  EXPECT_EQ(dst, src);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelMemcpySize,
                         ::testing::Values(1, 63, 64, 65, 4096,
                                           64 * 1024 - 1, 64 * 1024,
                                           1 << 20, (1 << 22) + 17));

TEST(ParallelMemcpy, ZeroBytesIsNoop) {
  ThreadPool pool(2);
  unsigned char a = 1, b = 2;
  parallel_memcpy(pool, &a, &b, 0);
  EXPECT_EQ(a, 1);
}

TEST(ParallelMemcpy, RejectsNullPointers) {
  ThreadPool pool(1);
  unsigned char x = 0;
  EXPECT_THROW(parallel_memcpy(pool, nullptr, &x, 1),
               InvalidArgumentError);
  EXPECT_THROW(parallel_memcpy(pool, &x, nullptr, 1),
               InvalidArgumentError);
}

TEST(ParallelMemcpy, RejectsOverlap) {
  ThreadPool pool(2);
  std::vector<unsigned char> buf(1 << 20);
  EXPECT_THROW(
      parallel_memcpy(pool, buf.data() + 1, buf.data(), buf.size() - 1),
      InvalidArgumentError);
}

TEST(ParallelMemcpy, AdjacentRegionsAllowed) {
  ThreadPool pool(2);
  std::vector<unsigned char> buf(256 * 1024, 0);
  std::iota(buf.begin(), buf.begin() + 128 * 1024, 0);
  parallel_memcpy(pool, buf.data() + 128 * 1024, buf.data(), 128 * 1024);
  EXPECT_TRUE(std::equal(buf.begin(), buf.begin() + 128 * 1024,
                         buf.begin() + 128 * 1024));
}

TEST(ParallelMemcpy, MaxWaysLimitsSlicing) {
  ThreadPool pool(4);
  const auto src = random_bytes(1 << 20, 9);
  std::vector<unsigned char> dst(src.size());
  parallel_memcpy(pool, dst.data(), src.data(), src.size(), 1);
  EXPECT_EQ(dst, src);
}

TEST(ParallelMemcpyAsync, CompletesViaFutures) {
  ThreadPool pool(3);
  const auto src = random_bytes(3 << 20, 11);
  std::vector<unsigned char> dst(src.size(), 0);
  auto futs = parallel_memcpy_async(pool, dst.data(), src.data(),
                                    src.size(), pool.size());
  EXPECT_FALSE(futs.empty());
  pool.wait(futs);
  EXPECT_EQ(dst, src);
}

TEST(ParallelMemcpyAsync, SafeFromSingleThreadPool) {
  // The deadlock case the async variant exists for: a 1-thread pool must
  // still complete the copy while the caller waits.
  ThreadPool pool(1);
  const auto src = random_bytes(1 << 20, 13);
  std::vector<unsigned char> dst(src.size(), 0);
  auto futs = parallel_memcpy_async(pool, dst.data(), src.data(),
                                    src.size(), pool.size());
  pool.wait(futs);
  EXPECT_EQ(dst, src);
}

TEST(ParallelMemcpyAsync, MaxWaysCapsTheSlicesAndEachReportsDone) {
  ThreadPool pool(4);
  const auto src = random_bytes(4 << 20, 17);
  std::vector<unsigned char> dst(src.size(), 0);
  std::atomic<std::size_t> done{0};
  const std::size_t before = pool.tasks_executed();
  auto futs = parallel_memcpy_async(pool, dst.data(), src.data(),
                                    src.size(), 2, CopyMode::Cached,
                                    kCopySliceAlignBytes, [&done] {
                                      done.fetch_add(1);
                                    });
  pool.wait(futs);
  EXPECT_EQ(dst, src);
  EXPECT_EQ(pool.tasks_executed() - before, 2u);
  EXPECT_EQ(done.load(), 2u);
}

TEST(ParallelMemcpySliceCount, EverySliceMeetsTheMinimum) {
  constexpr std::size_t kMin = kParallelMemcpyMinSliceBytes;
  // The old `bytes / kMin + 1` formula handed out 2 slices for
  // kMin + 1 bytes — one of them far below the minimum.  Slice counts
  // round down now: a second slice only exists once both can carry kMin.
  EXPECT_EQ(parallel_memcpy_slice_count(0, 8, 8), 0u);
  EXPECT_EQ(parallel_memcpy_slice_count(1, 8, 8), 1u);
  EXPECT_EQ(parallel_memcpy_slice_count(kMin - 1, 8, 8), 1u);
  EXPECT_EQ(parallel_memcpy_slice_count(kMin, 8, 8), 1u);
  EXPECT_EQ(parallel_memcpy_slice_count(kMin + 1, 8, 8), 1u);
  EXPECT_EQ(parallel_memcpy_slice_count(2 * kMin - 1, 8, 8), 1u);
  EXPECT_EQ(parallel_memcpy_slice_count(2 * kMin, 8, 8), 2u);
  EXPECT_EQ(parallel_memcpy_slice_count(3 * kMin, 8, 8), 3u);
  EXPECT_EQ(parallel_memcpy_slice_count(100 * kMin, 8, 8), 8u);

  // Exhaustive floor check across the boundary region: no chosen count
  // ever yields a sub-minimum slice (balanced partitioning: the
  // smallest slice is bytes / ways).
  for (std::size_t bytes = 1; bytes <= 4 * kMin; bytes += kMin / 4) {
    const std::size_t ways = parallel_memcpy_slice_count(bytes, 16, 16);
    ASSERT_GE(ways, 1u);
    if (ways > 1) {
      EXPECT_GE(bytes / ways, kMin) << "bytes=" << bytes;
    }
  }
}

TEST(ParallelMemcpySliceCount, CappedByPoolAndMaxWays) {
  constexpr std::size_t kMin = kParallelMemcpyMinSliceBytes;
  EXPECT_EQ(parallel_memcpy_slice_count(100 * kMin, 4, 8), 4u);
  EXPECT_EQ(parallel_memcpy_slice_count(100 * kMin, 8, 3), 3u);
  // Degenerate caps still produce one slice for a nonzero copy.
  EXPECT_EQ(parallel_memcpy_slice_count(100 * kMin, 1, 0), 1u);
}

TEST(ParallelMemcpy, StreamingModeCopiesExactly) {
  ThreadPool pool(3);
  for (std::size_t n :
       {std::size_t{1} << 12, (std::size_t{1} << 21) + 17}) {
    const auto src = random_bytes(n, n + 3);
    std::vector<unsigned char> dst(n, 0xEE);
    parallel_memcpy(pool, dst.data(), src.data(), n, pool.size(),
                    CopyMode::Streaming);
    EXPECT_EQ(dst, src);
  }
}

TEST(ParallelMemcpy, DefaultSliceAlignIsTheSharedCacheLineConstant) {
  // One constant drives slice joints and hot-struct padding (S1): a
  // drifting default would silently reintroduce joint false sharing.
  EXPECT_EQ(kCopySliceAlignBytes, kCacheLineBytes);
}

TEST(ParallelMemcpy, CustomSliceAlignCopiesExactly) {
  ThreadPool pool(4);
  // Sizes straddling the alignment so boundary rounding gets exercised
  // and some slices may come out empty.
  for (std::size_t align : {std::size_t{1}, std::size_t{64},
                            std::size_t{4096}}) {
    for (std::size_t n :
         {std::size_t{1}, std::size_t{4095}, (std::size_t{1} << 20) + 13}) {
      const auto src = random_bytes(n, n + align);
      std::vector<unsigned char> dst(n, 0xEE);
      parallel_memcpy(pool, dst.data(), src.data(), n, pool.size(),
                      CopyMode::Cached, align);
      EXPECT_EQ(dst, src) << "align=" << align << " n=" << n;
    }
  }
}

TEST(ParallelMemcpyAsync, CustomSliceAlignCopiesExactly) {
  ThreadPool pool(3);
  const std::size_t n = (1 << 20) + 7;
  const auto src = random_bytes(n, 99);
  std::vector<unsigned char> dst(n, 0xEE);
  auto futs = parallel_memcpy_async(pool, dst.data(), src.data(), n,
                                    pool.size(), CopyMode::Cached, 4096);
  pool.wait(futs);
  EXPECT_EQ(dst, src);
}

TEST(ParallelMemcpy, RejectsZeroSliceAlign) {
  ThreadPool pool(2);
  std::vector<unsigned char> a(128), b(128);
  EXPECT_THROW(parallel_memcpy(pool, a.data(), b.data(), a.size(),
                               pool.size(), CopyMode::Cached, 0),
               InvalidArgumentError);
}

}  // namespace
}  // namespace mlm
