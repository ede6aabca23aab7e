#include "mlm/parallel/parallel_memcpy.h"

#include <algorithm>
#include <cstring>

#include "mlm/parallel/executor.h"
#include "mlm/parallel/partition.h"
#include "mlm/support/error.h"

namespace mlm {

std::size_t parallel_memcpy_slice_count(std::size_t bytes,
                                        std::size_t pool_size,
                                        std::size_t max_ways) {
  if (bytes == 0) return 0;
  // Round *down* to the slice count whose slices all meet the minimum
  // (the old `bytes / kMin + 1` handed out sub-minimum slices just past
  // each multiple of the minimum), but never below one slice.
  const std::size_t by_size =
      std::max<std::size_t>(bytes / kParallelMemcpyMinSliceBytes, 1);
  return std::max<std::size_t>(std::min({max_ways, pool_size, by_size}),
                               1);
}

void parallel_memcpy(Executor& pool, void* dst, const void* src,
                     std::size_t bytes) {
  parallel_memcpy(pool, dst, src, bytes, pool.size());
}

void parallel_memcpy(Executor& pool, void* dst, const void* src,
                     std::size_t bytes, std::size_t max_ways,
                     CopyMode mode, std::size_t slice_align) {
  MLM_REQUIRE(dst != nullptr && src != nullptr, "null copy endpoint");
  MLM_REQUIRE(slice_align >= 1, "slice_align must be >= 1");
  if (bytes == 0) return;

  const auto* s = static_cast<const unsigned char*>(src);
  auto* d = static_cast<unsigned char*>(dst);
  // Overlap would make the per-slice copies racy.
  MLM_REQUIRE(d + bytes <= s || s + bytes <= d,
              "parallel_memcpy regions must not overlap");

  const std::size_t ways =
      parallel_memcpy_slice_count(bytes, pool.size(), max_ways);
  if (ways <= 1) {
    copy_bytes(d, s, bytes, mode);
    return;
  }

  std::vector<std::future<void>> futs;
  futs.push_back(pool.submit_slices(
      ways, [d, s, bytes, ways, mode, slice_align](std::size_t p) {
        const IndexRange r =
            partition_range_aligned(bytes, ways, p, slice_align);
        if (r.empty()) return;
        copy_bytes(d + r.begin, s + r.begin, r.size(), mode);
      }));
  pool.wait(futs);
}

std::vector<std::future<void>> parallel_memcpy_async(
    Executor& pool, void* dst, const void* src, std::size_t bytes,
    std::size_t max_ways, CopyMode mode, std::size_t slice_align,
    std::function<void()> on_slice_done) {
  MLM_REQUIRE(dst != nullptr && src != nullptr, "null copy endpoint");
  MLM_REQUIRE(slice_align >= 1, "slice_align must be >= 1");
  std::vector<std::future<void>> futs;
  if (bytes == 0) return futs;

  const auto* s = static_cast<const unsigned char*>(src);
  auto* d = static_cast<unsigned char*>(dst);
  MLM_REQUIRE(d + bytes <= s || s + bytes <= d,
              "parallel_memcpy regions must not overlap");

  const std::size_t ways =
      parallel_memcpy_slice_count(bytes, pool.size(), max_ways);
  futs.push_back(pool.submit_slices(
      ways, [d, s, bytes, ways, mode, slice_align,
             done = std::move(on_slice_done)](std::size_t p) {
        const IndexRange r =
            partition_range_aligned(bytes, ways, p, slice_align);
        if (!r.empty()) copy_bytes(d + r.begin, s + r.begin, r.size(), mode);
        if (done) done();
      }));
  return futs;
}

}  // namespace mlm
