// Serial comparison sorts implemented from scratch.
//
// MLM-sort's key design decision (Section 4) is to sort each thread's
// chunk with "the best available serial sorting algorithm" — a quicksort
// variant — rather than relying on multithreaded sort scaling to
// hundreds of cores.  We provide our own sorts so the library is
// self-contained and its behaviour (e.g. the divide-and-conquer locality
// that makes MLM-implicit fast) is inspectable.
//
// serial_sort() picks one of two quicksorts at compile time:
//
//  * branchless_quicksort — integral keys under std::less, on contiguous
//    storage (every int64 chunk MLM-sort, the external sorter and the
//    parallel sorts hand it).  A pdqsort-style quicksort whose partition
//    loop has no data-dependent branch, so random keys cost no branch
//    mispredictions; about 3-4x faster than introsort on random int64.
//  * introsort — everything else: floating point (-0.0 equals 0.0 but
//    differs in bits, which breaks the argument below), strings,
//    records, custom comparators and std::greater.
//
// The output does not depend on the choice.  Both are unstable, but
// integers that compare equal under std::less are bit-identical, so any
// correct sort of an integral range yields the same bytes.  Every digest
// computed downstream is therefore unchanged by the fast path.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <functional>
#include <iterator>
#include <memory>
#include <utility>

namespace mlm::sort {

namespace detail {
constexpr std::ptrdiff_t kInsertionThreshold = 24;

template <typename It, typename Comp>
void sift_down(It first, std::ptrdiff_t start, std::ptrdiff_t n,
               Comp& comp) {
  std::ptrdiff_t root = start;
  for (;;) {
    std::ptrdiff_t child = 2 * root + 1;
    if (child >= n) return;
    if (child + 1 < n && comp(first[child], first[child + 1])) ++child;
    if (!comp(first[root], first[child])) return;
    std::swap(first[root], first[child]);
    root = child;
  }
}

/// Median-of-three pivot selection; leaves the median at `mid`.
template <typename It, typename Comp>
void median_of_three(It lo, It mid, It hi, Comp& comp) {
  if (comp(*mid, *lo)) std::swap(*mid, *lo);
  if (comp(*hi, *mid)) {
    std::swap(*hi, *mid);
    if (comp(*mid, *lo)) std::swap(*mid, *lo);
  }
}

template <typename It, typename Comp>
void introsort_loop(It first, It last, int depth_limit, Comp& comp);
}  // namespace detail

/// Stable binary insertion sort; the base case of introsort and fast on
/// nearly-sorted data.
template <typename It, typename Comp = std::less<>>
void insertion_sort(It first, It last, Comp comp = {}) {
  if (first == last) return;
  for (It i = std::next(first); i != last; ++i) {
    auto value = std::move(*i);
    It pos = std::upper_bound(first, i, value, comp);
    std::move_backward(pos, i, std::next(i));
    *pos = std::move(value);
  }
}

/// Bottom-up heapsort: O(n log n) worst case, in place, not stable.
template <typename It, typename Comp = std::less<>>
void heapsort(It first, It last, Comp comp = {}) {
  const std::ptrdiff_t n = last - first;
  for (std::ptrdiff_t start = n / 2 - 1; start >= 0; --start) {
    detail::sift_down(first, start, n, comp);
  }
  for (std::ptrdiff_t end = n - 1; end > 0; --end) {
    std::swap(first[0], first[end]);
    detail::sift_down(first, 0, end, comp);
  }
}

/// Introsort: median-of-three quicksort with a 2*log2(n) depth limit
/// falling back to heapsort, finishing small partitions with insertion
/// sort.  O(n log n) worst case; this is the same family as std::sort.
template <typename It, typename Comp = std::less<>>
void introsort(It first, It last, Comp comp = {}) {
  const std::ptrdiff_t n = last - first;
  if (n <= 1) return;
  int depth_limit = 0;
  for (std::ptrdiff_t m = n; m > 1; m >>= 1) depth_limit += 2;
  detail::introsort_loop(first, last, depth_limit, comp);
  insertion_sort(first, last, comp);
}

namespace detail {
template <typename It, typename Comp>
void introsort_loop(It first, It last, int depth_limit, Comp& comp) {
  while (last - first > kInsertionThreshold) {
    if (depth_limit == 0) {
      heapsort(first, last, comp);
      return;
    }
    --depth_limit;
    It mid = first + (last - first) / 2;
    median_of_three(first, mid, last - 1, comp);
    // Hoare partition around the median-of-three pivot value.
    auto pivot = *mid;
    It i = first;
    It j = last - 1;
    for (;;) {
      while (comp(*i, pivot)) ++i;
      while (comp(pivot, *j)) --j;
      if (i >= j) break;
      std::swap(*i, *j);
      ++i;
      --j;
    }
    // Recurse on the smaller side to bound stack depth at O(log n).
    It split = j + 1;
    if (split - first < last - split) {
      introsort_loop(first, split, depth_limit, comp);
      first = split;
    } else {
      introsort_loop(split, last, depth_limit, comp);
      last = split;
    }
  }
}
}  // namespace detail

namespace detail {
/// Orders the pair with conditional moves instead of a branch.
template <typename T, typename Comp>
void sort2_branchless(T* a, T* b, Comp& comp) {
  const T x = *a;
  const T y = *b;
  const bool swap = comp(y, x);
  *a = swap ? y : x;
  *b = swap ? x : y;
}

/// Leaves the median of the three at `b`.
template <typename T, typename Comp>
void sort3_branchless(T* a, T* b, T* c, Comp& comp) {
  sort2_branchless(a, b, comp);
  sort2_branchless(b, c, comp);
  sort2_branchless(a, b, comp);
}

/// Cyclic branchless Lomuto partition: moves the elements of
/// [first, last) that satisfy `pred` to the front and returns their
/// count.  One element waits in a register while the others rotate
/// through the hole it left, so every iteration does the same two stores
/// whatever `pred` says; the comparison only advances a counter.
template <typename T, typename Pred>
std::ptrdiff_t partition_branchless(T* first, T* last, Pred pred) {
  if (first == last) return 0;
  const T held = *first;
  T* hole = first;
  std::ptrdiff_t count = 0;
  for (T* right = first + 1; right < last; ++right) {
    const bool goes_left = pred(*right);
    T* left = first + count;
    *hole = *left;
    *left = *right;
    hole = right;
    count += goes_left;
  }
  T* left = first + count;
  const bool goes_left = pred(held);
  *hole = *left;
  *left = held;
  return count + goes_left;
}

template <typename T, typename Comp>
void branchless_quicksort_loop(T* first, T* last, int depth_limit,
                               bool leftmost, Comp& comp) {
  for (;;) {
    const std::ptrdiff_t n = last - first;
    if (n <= kInsertionThreshold) {
      for (T* i = first + 1; i < last; ++i) {
        const T value = *i;
        T* j = i;
        for (; j > first && comp(value, j[-1]); --j) *j = j[-1];
        *j = value;
      }
      return;
    }
    if (depth_limit == 0) {
      heapsort(first, last, comp);
      return;
    }
    --depth_limit;
    // Median of three, or pseudo-median of nine on larger ranges, moved
    // to the front as the pivot.
    T* mid = first + n / 2;
    sort3_branchless(first, mid, last - 1, comp);
    if (n > 128) {
      sort3_branchless(first + 1, mid - 1, last - 2, comp);
      sort3_branchless(first + 2, mid + 1, last - 3, comp);
      sort3_branchless(mid - 1, mid, mid + 1, comp);
    }
    std::swap(*first, *mid);
    const T pivot = *first;
    // Everything here is >= the element just left of the range.  If the
    // pivot equals it, the keys <= pivot are all equal to the pivot:
    // gather them at the front and drop them in one pass, so runs of
    // duplicates cost linear time.
    if (!leftmost && !comp(first[-1], pivot)) {
      first += 1 + partition_branchless(
                       first + 1, last,
                       [&](const T& x) { return !comp(pivot, x); });
      continue;
    }
    const std::ptrdiff_t left_n = partition_branchless(
        first + 1, last, [&](const T& x) { return comp(x, pivot); });
    const std::ptrdiff_t right_n = n - left_n - 1;
    T* split = first + left_n;
    std::swap(*first, *split);
    // A lopsided split hints at a pattern (organ pipes, median-of-three
    // killers): swap a few elements at fixed offsets so the next pivots
    // sample differently.  The depth limit still bounds the worst case.
    if (left_n < n / 8 || right_n < n / 8) {
      if (left_n >= kInsertionThreshold) {
        std::swap(first[0], first[left_n / 4]);
        std::swap(split[-1], split[-left_n / 4]);
      }
      if (right_n >= kInsertionThreshold) {
        std::swap(split[1], split[1 + right_n / 4]);
        std::swap(last[-1], last[-right_n / 4]);
      }
    }
    // Recurse on the smaller side to bound stack depth at O(log n).
    if (left_n < right_n) {
      branchless_quicksort_loop(first, split, depth_limit, leftmost, comp);
      first = split + 1;
      leftmost = false;
    } else {
      branchless_quicksort_loop(split + 1, last, depth_limit, false, comp);
      last = split;
    }
  }
}

/// Where serial_sort takes the branchless path: integral keys (equal
/// means bit-identical), the default ascending order, contiguous storage.
template <typename It, typename Comp>
inline constexpr bool kBranchlessSortable =
    std::contiguous_iterator<It> &&
    std::integral<std::iter_value_t<It>> &&
    (std::same_as<Comp, std::less<>> ||
     std::same_as<Comp, std::less<std::iter_value_t<It>>>);
}  // namespace detail

/// pdqsort-style quicksort without data-dependent branches in its inner
/// loops: branchless median-of-three / pseudo-median-of-nine pivots, a
/// branchless Lomuto partition, pdqsort's equal-key partition for
/// duplicate runs, pattern-breaking swaps after lopsided splits, and
/// insertion sort below kInsertionThreshold.  The same 2*log2(n) depth
/// limit as introsort falls back to heapsort, so the worst case stays
/// O(n log n).  An input that is already ascending, or descending
/// throughout, is finished in one linear pass.  For trivially copyable
/// keys whose equal elements are interchangeable; serial_sort() sends
/// integers here.
template <typename T, typename Comp = std::less<>>
void branchless_quicksort(T* first, T* last, Comp comp = {}) {
  const std::ptrdiff_t n = last - first;
  if (n <= 1) return;
  std::ptrdiff_t run = 1;
  if (comp(first[1], first[0])) {
    while (run < n && !comp(first[run - 1], first[run])) ++run;
    if (run == n) {
      std::reverse(first, last);
      return;
    }
  } else {
    while (run < n && !comp(first[run], first[run - 1])) ++run;
    if (run == n) return;
  }
  int depth_limit = 0;
  for (std::ptrdiff_t m = n; m > 1; m >>= 1) depth_limit += 2;
  detail::branchless_quicksort_loop(first, last, depth_limit, true, comp);
}

/// The serial sort MLM-sort uses for per-thread chunks: the branchless
/// quicksort for integral keys under std::less on contiguous storage,
/// introsort otherwise.  Same output either way (see the file comment).
template <typename It, typename Comp = std::less<>>
void serial_sort(It first, It last, Comp comp = {}) {
  if constexpr (detail::kBranchlessSortable<It, Comp>) {
    auto* data = std::to_address(first);
    branchless_quicksort(data, data + (last - first), comp);
  } else {
    introsort(first, last, comp);
  }
}

}  // namespace mlm::sort
