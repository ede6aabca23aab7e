// Multithreaded memory copy.
//
// KNL has no user-programmable DMA, so chunk transfers between DDR and
// MCDRAM are performed by CPU threads (Section 3).  parallel_memcpy
// splits one large copy across a pool — this is exactly the work the
// paper's copy-in / copy-out pools perform, and the operation whose
// per-thread rate S_copy (Table 2: 4.8 GB/s) the model depends on.
//
// All variants take an Executor, so the same slicing runs on real
// ThreadPool workers or under a DeterministicExecutor's seeded schedule,
// and a CopyMode (mlm/parallel/stream_copy.h) so copy-out-shaped
// transfers can use non-temporal stores instead of polluting the cache.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <vector>

#include "mlm/parallel/stream_copy.h"
#include "mlm/support/cache_line.h"

namespace mlm {

class Executor;

/// Floor on the work one copy slice is worth dispatching for.
inline constexpr std::size_t kParallelMemcpyMinSliceBytes = 64 * 1024;

/// Default slice-boundary granularity.  Slice joints land on cache-line
/// boundaries so two adjacent copy workers never write the same line
/// (false sharing at every joint otherwise); sharing kCacheLineBytes
/// with the padding of hot shared structs keeps the two in lockstep.
inline constexpr std::size_t kCopySliceAlignBytes = kCacheLineBytes;

/// Number of slices a copy of `bytes` is split into: capped by the pool
/// size and `max_ways`, and rounded so every slice carries at least
/// kParallelMemcpyMinSliceBytes (never 0 slices for a nonzero copy).
/// Exposed for tests pinning the boundaries.
std::size_t parallel_memcpy_slice_count(std::size_t bytes,
                                        std::size_t pool_size,
                                        std::size_t max_ways);

/// Copy `bytes` bytes from `src` to `dst` using every worker of `pool`.
/// Regions must not overlap.  Blocks until the copy completes.
void parallel_memcpy(Executor& pool, void* dst, const void* src,
                     std::size_t bytes);

/// As above but splits into at most `max_ways` slices (used when a caller
/// wants to leave some pool workers free for other queued transfers) and
/// copies each slice per `mode` (streaming copies produce identical
/// bytes; they only bypass the cache).  `slice_align` sets the slice
/// boundary granularity (>= 1; defaults to one cache line).
void parallel_memcpy(Executor& pool, void* dst, const void* src,
                     std::size_t bytes, std::size_t max_ways,
                     CopyMode mode = CopyMode::Cached,
                     std::size_t slice_align = kCopySliceAlignBytes);

/// Non-blocking variant: at most `max_ways` slices are posted to the
/// pool and the batch future returned.  The caller must keep src/dst
/// alive and join every future with pool.wait() (which a deterministic
/// executor needs to drive its schedule) before touching either region.
/// Safe to call from the orchestrating thread while the pool's workers
/// stay free to run the slices (unlike wrapping the blocking call in a
/// pool task, which deadlocks a pool of size one).  `on_slice_done`, if
/// set, runs on the worker right after each slice's bytes are copied —
/// concurrently across slices — so a caller can time when the copy
/// itself finished rather than when it was joined.
std::vector<std::future<void>> parallel_memcpy_async(
    Executor& pool, void* dst, const void* src, std::size_t bytes,
    std::size_t max_ways, CopyMode mode = CopyMode::Cached,
    std::size_t slice_align = kCopySliceAlignBytes,
    std::function<void()> on_slice_done = nullptr);

}  // namespace mlm
