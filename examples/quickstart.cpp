// Quickstart: sort an array larger than "MCDRAM" with MLM-sort.
//
// The example builds a scaled-down KNL memory environment (16 MiB of
// MCDRAM instead of 16 GiB, same bandwidth ratios), generates 32 MiB of
// random 64-bit integers — twice the near-memory capacity, the regime
// the paper targets — and sorts them with MLM-sort in flat mode:
// megachunks are copied into the MCDRAM space, each worker thread
// serial-sorts one chunk, a parallel multiway merge writes sorted
// megachunks back, and a final multiway merge finishes the sort.
//
// On a real KNL you would use mlm::knl7250() and back the MCDRAM space
// with memkind via the shim in mlm/memory/memkind_shim.h.
#include <algorithm>
#include <iostream>

#include "mlm/core/mlm_sort.h"
#include "mlm/machine/knl_config.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/sort/input_gen.h"
#include "mlm/support/stopwatch.h"
#include "mlm/support/table.h"
#include "mlm/support/units.h"

int main() {
  using namespace mlm;

  // 1. Describe the machine.  scaled_knl(1024, 4) divides the 7250's
  //    capacities by 1024 and uses at most 4 worker threads, so the
  //    example runs anywhere in seconds while keeping every ratio that
  //    drives the algorithm's behaviour.
  const KnlConfig machine = scaled_knl(1024, 4);
  std::cout << "Machine: " << machine.name << " — MCDRAM "
            << fmt_count(machine.mcdram_bytes) << " bytes, "
            << machine.total_threads() << " threads\n";

  // 2. Build the memory environment for flat mode: an unlimited DDR
  //    space plus a capacity-limited MCDRAM space.
  DualSpace space(make_dual_space_config(machine, McdramMode::Flat));

  // 3. Generate data: 4M int64 = 32 MiB, twice the scaled MCDRAM.
  const std::size_t n = 4 << 20;
  auto data = sort::make_input(n, sort::InputOrder::Random, /*seed=*/7);
  const auto checksum_before = sort::checksum(data);
  std::cout << "Data: " << fmt_count(n) << " int64 elements ("
            << fmt_count(n * sizeof(std::int64_t)) << " bytes, "
            << fmt_double(double(n) * 8 /
                          double(machine.mcdram_bytes), 1)
            << "x the MCDRAM capacity)\n";

  // 4. Sort with MLM-sort (flat variant: explicit copies through the
  //    near memory).
  ThreadPool pool(machine.total_threads());
  core::MlmSortConfig config;
  config.variant = core::MlmVariant::Flat;
  core::MlmSorter<std::int64_t> sorter(space, pool, config);

  Stopwatch timer;
  const core::MlmSortStats stats = sorter.sort(std::span<std::int64_t>(data));
  const double seconds = timer.elapsed_s();

  // 5. Verify and report.
  const bool sorted = std::is_sorted(data.begin(), data.end());
  const bool intact = sort::checksum(data) == checksum_before;
  std::cout << "Sorted: " << (sorted ? "yes" : "NO") << ", data intact: "
            << (intact ? "yes" : "NO") << "\n"
            << "Megachunks: " << stats.megachunks
            << " (chunks per megachunk: " << stats.chunks_per_megachunk
            << ", bytes staged through MCDRAM: "
            << fmt_count(stats.bytes_copied_in) << ")\n"
            << "Wall time: " << fmt_double(seconds, 3) << " s  ("
            << fmt_double(double(n) / seconds / 1e6, 1) << " M elem/s)\n"
            << "MCDRAM high-water: "
            << fmt_count(space.mcdram().stats().high_water_bytes)
            << " bytes of " << fmt_count(machine.mcdram_bytes) << "\n";
  return sorted && intact ? 0 : 1;
}
