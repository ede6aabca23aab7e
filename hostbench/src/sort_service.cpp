// sort_service: one batch of small external-sort jobs
// (service::make_recoverable_sort_job) goes to a JobScheduler on a
// ThreadPool driver.  Two jobs run at once with two workers each; a
// file-backed JobJournal checkpoints every step.  Priorities and near
// budgets are mixed, so jobs queue for budget and slots, and whales
// (budget above the whole near tier) are admitted Degraded (DdrOnly).
// Outer chunks and merge staging blocks are sized explicitly so that
// both running tenants' DDR staging fits at once.
#include <algorithm>
#include <filesystem>
#include <set>

#include <unistd.h>

#include "common.h"
#include "mlm/parallel/parallel_memcpy.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/service/job_scheduler.h"
#include "mlm/service/journal.h"
#include "mlm/service/sort_job.h"

namespace hostbench {

namespace {

using Elem = std::int64_t;

struct Tenant {
  int priority = 0;
  std::uint64_t near_budget = 0;
  std::size_t offset = 0;  ///< first element in the tenant arena
};

/// The batch mix.  Every group of 8 jobs has the same budgets and
/// priorities, shuffled by the seed, so every seed does the same work:
/// one job declares no near working set (budget 0), one is a whale
/// asking for twice the near tier (admitted Degraded), six ask for
/// 1/8, 2/8, 3/8, 3/8, 4/8 and 5/8 of it, so two large requests cannot
/// run side by side and queue for budget.
std::vector<Tenant> make_mix(std::size_t jobs, std::size_t elements,
                             std::uint64_t near_cap, std::uint64_t seed) {
  const std::uint64_t eighths[8] = {0, 16, 1, 2, 3, 3, 4, 5};
  const int priorities[8] = {0, 0, 0, 1, 1, 1, 2, 2};
  Rng rng(seed ^ 0x5e7f1ce);
  std::vector<Tenant> mix(jobs);
  for (std::size_t g = 0; g < jobs; g += 8) {
    std::size_t b[8] = {0, 1, 2, 3, 4, 5, 6, 7};
    std::size_t p[8] = {0, 1, 2, 3, 4, 5, 6, 7};
    for (std::size_t i = 7; i > 0; --i) {
      std::swap(b[i], b[rng.below(i + 1)]);
      std::swap(p[i], p[rng.below(i + 1)]);
    }
    for (std::size_t i = 0; i < 8 && g + i < jobs; ++i) {
      Tenant& t = mix[g + i];
      t.near_budget = near_cap * eighths[b[i]] / 8;
      t.priority = priorities[p[i]];
      t.offset = (g + i) * elements;
    }
  }
  return mix;
}

struct BatchResult {
  double makespan_s = 0.0;
  mlm::service::ServiceStats service;
  std::vector<mlm::service::SortStats> jobs;
  std::uint64_t journal_bytes = 0;
  bool journal_terminal = false;
};

}  // namespace

Result run_sort_service(const Options& opt, SpanLog& spans) {
  Result r;
  // Full size: 256 jobs of 128 Ki int64 (1 MiB each); near tier 512 KiB,
  // DDR 8 MiB.  Self-test: 16 jobs of 4 Ki.
  const std::size_t jobs = opt.selftest ? 16 : 256;
  const std::size_t elements = opt.selftest ? 4096 : 131072;
  const std::uint64_t near_cap = opt.selftest ? 64 << 10 : 512 << 10;
  const std::uint64_t ddr_cap = opt.selftest ? 1 << 20 : 8 << 20;
  const std::size_t total = jobs * elements;
  const std::size_t bytes = total * sizeof(Elem);

  mlm::HierarchyConfig hcfg;
  hcfg.tiers = {mlm::TierConfig{"nvm", mlm::MemKind::NVM, 0},
                mlm::TierConfig{"ddr", mlm::MemKind::DDR, ddr_cap},
                mlm::TierConfig{"mcdram", mlm::MemKind::MCDRAM, near_cap}};
  hcfg.mode = mlm::McdramMode::Flat;
  mlm::MemoryHierarchy hier(hcfg);
  mlm::service::JobSchedulerConfig scfg;
  scfg.max_concurrent = 2;
  scfg.job_workers = 2;
  scfg.degrade.allow_tier_fallback = true;
  scfg.checkpoint_interval_steps = 1;
  mlm::ThreadPool driver(scfg.max_concurrent, "driver");
  mlm::ThreadPool helpers(4, "service-setup");

  mlm::core::ExternalSortConfig sort_cfg;
  sort_cfg.outer_chunk_elements = elements / 4;
  sort_cfg.merge_block_elements = opt.selftest ? 256 : 4096;
  sort_cfg.inner.variant = mlm::core::MlmVariant::Flat;

  const std::vector<Tenant> mix = make_mix(jobs, elements, near_cap, opt.seed);
  mlm::SpaceBuffer<Elem> input(hier.tier(0), total);
  mlm::SpaceBuffer<Elem> arena(hier.tier(0), total);
  mlm::parallel_for_ranges(helpers, 0, total, [&](mlm::IndexRange rg) {
    for (std::size_t i = rg.begin; i < rg.end; ++i) {
      input[i] = static_cast<Elem>(stream_value(opt.seed, i));
    }
  });
  auto restore = [&] {
    mlm::parallel_memcpy(helpers, arena.data(), input.data(), bytes);
  };

  const std::string dir =
      (opt.out_dir.empty() ? std::string(".") : opt.out_dir) +
      "/journal-" + std::to_string(getpid());
  std::filesystem::create_directories(dir);

  // One batch: submit every job of `mix` [0, count), drive the
  // scheduler to the end, and collect what the public calls report.
  // With a span log, the submissions and run_all are traced.
  auto batch = [&](std::size_t count, std::size_t index, SpanLog* log) {
    BatchResult b;
    const std::string path = dir + "/batch-" + std::to_string(index) + ".wal";
    std::filesystem::remove(path);
    std::vector<std::uint64_t> ids;
    {
      mlm::service::JobJournal journal(path);
      mlm::service::JobSchedulerConfig cfg = scfg;
      cfg.journal = &journal;
      mlm::service::JobScheduler svc(hier, driver, cfg);
      const mlm::Stopwatch clock;
      const std::size_t root =
          log != nullptr ? log->open("service.batch", "service") : 0;
      const std::size_t submit =
          log != nullptr ? log->open("submit_recoverable", "service", root) : 0;
      for (std::size_t j = 0; j < count; ++j) {
        mlm::service::JobConfig jc;
        jc.name = "t" + std::to_string(j);
        jc.priority = mix[j].priority;
        jc.near_budget_bytes = mix[j].near_budget;
        jc.recovery_key = "hostbench.sort." + std::to_string(j);
        ids.push_back(svc.submit_recoverable(
            jc, mlm::service::make_recoverable_sort_job(
                    std::span<Elem>(arena.data() + mix[j].offset, elements),
                    sort_cfg)));
      }
      if (log != nullptr) log->close(submit);
      const std::size_t run =
          log != nullptr ? log->open("run_all", "service", root) : 0;
      b.service = svc.run_all();
      b.makespan_s = clock.elapsed_s();
      if (log != nullptr) {
        log->close(run);
        log->close(root);
      }
      for (const std::uint64_t id : ids) b.jobs.push_back(svc.job_stats(id));
      b.journal_bytes = journal.bytes();
    }
    // A fresh journal over the same file must find a terminal record for
    // every job.
    const mlm::service::JobJournal reread(path);
    std::set<std::uint64_t> done;
    for (const auto& rec : reread.replay().records) {
      if (rec.type == mlm::service::JournalRecordType::Completed) {
        done.insert(rec.job_id);
      }
    }
    b.journal_terminal = std::all_of(ids.begin(), ids.end(), [&](auto id) {
      return done.count(id) == 1;
    });
    std::filesystem::remove(path);
    return b;
  };

  std::vector<Digest> digests;
  auto tenants_sorted = [&](std::size_t count) {
    for (std::size_t j = 0; j < count; ++j) {
      const std::span<const Elem> out(arena.data() + mix[j].offset, elements);
      if (!std::is_sorted(out.begin(), out.end()) ||
          !(digest_of(out) == digests[j])) {
        return false;
      }
    }
    return true;
  };
  auto check_batch = [&](const BatchResult& b, std::size_t count) {
    std::uint64_t staged = 0;
    bool all_completed = true;
    for (const auto& st : b.jobs) {
      all_completed &= st.state == mlm::service::JobState::Completed;
      if (st.sort.has_value()) staged += st.sort->bytes_staged_in;
    }
    r.check(all_completed && b.service.jobs_completed == count,
            "every job completes");
    r.check(tenants_sorted(count),
            "every tenant array is a sorted permutation of its input");
    r.check(staged == count * elements * sizeof(Elem),
            "summed bytes_staged_in equals the tenant bytes");
    r.check(b.journal_terminal,
            "journal replay finds a terminal record for every job");
  };

  // Touch the working set, then one warm-up batch of the first 16 jobs.
  restore();
  batch(std::min<std::size_t>(16, jobs), 0, nullptr);
  const double setup_s = process_seconds();

  for (std::size_t j = 0; j < jobs; ++j) {
    digests.push_back(digest_of(
        std::span<const Elem>(input.data() + mix[j].offset, elements)));
  }

  std::vector<BatchResult> batches;
  const std::vector<double> rep_s = repeat_for(
      opt.trace ? opt.seconds / 2 : opt.seconds, 3, [&](std::size_t i) {
        restore();
        batches.push_back(batch(jobs, i + 1, nullptr));
        check_batch(batches.back(), jobs);
        return batches.back().makespan_s;
      });
  const double peak_rss = peak_rss_mib();
  r.attempted = batches.size() * jobs;

  auto latency_p50 = [](const BatchResult& b) {
    std::vector<double> v;
    for (const auto& st : b.jobs) v.push_back(st.queue_seconds + st.run_seconds);
    return median(v);
  };
  std::vector<double> latencies;
  for (const BatchResult& b : batches) latencies.push_back(latency_p50(b));
  const double makespan = median(rep_s);

  if (opt.selftest) {
    // Probe: one element swapped inside a tenant must be caught.
    Elem* t = arena.data() + mix[0].offset;
    std::swap(t[0], t[elements - 1]);
    r.check(!tenants_sorted(jobs),
            "probe: the tenant check catches one swapped element");
    std::swap(t[0], t[elements - 1]);
  }

  if (opt.trace) {
    // Traced batches: the same public calls, each inside a span.
    std::vector<double> traced_s;
    repeat_for(opt.seconds / 2, 2, [&](std::size_t i) {
      restore();
      batches.push_back(batch(jobs, 1000 + i, &spans));
      check_batch(batches.back(), jobs);
      traced_s.push_back(batches.back().makespan_s);
      return traced_s.back();
    });
    r.attempted += traced_s.size() * jobs;

    // Per-layer figures from the untraced batches (medians over batches).
    const std::size_t untraced = rep_s.size();
    auto med = [&](auto field) {
      std::vector<double> v;
      for (std::size_t i = 0; i < untraced; ++i) v.push_back(field(batches[i]));
      return median(v);
    };
    auto job_med = [](const BatchResult& b, auto field) {
      std::vector<double> v;
      for (const auto& st : b.jobs) v.push_back(field(st));
      return median(v);
    };
    auto sorter_sum = [](const BatchResult& b, auto field) {
      double s = 0.0;
      for (const auto& st : b.jobs) {
        if (st.sort.has_value()) s += field(*st.sort);
      }
      return s;
    };
    const auto staging = [](const auto& s) { return s.staging_seconds; };
    const auto inner = [](const auto& s) { return s.sorting_seconds; };
    const auto merging = [](const auto& s) { return s.merging_seconds; };
    r.metrics.set("core.external_sort.staging_s",
                  med([&](const auto& b) { return sorter_sum(b, staging); }));
    r.metrics.set("core.external_sort.inner_sort_s",
                  med([&](const auto& b) { return sorter_sum(b, inner); }));
    r.metrics.set("core.external_sort.merge_s",
                  med([&](const auto& b) { return sorter_sum(b, merging); }));
    r.metrics.set("service.queue_wait_p50_s", med([&](const auto& b) {
                    return job_med(b, [](const auto& st) { return st.queue_seconds; });
                  }));
    r.metrics.set("service.run_p50_s", med([&](const auto& b) {
                    return job_med(b, [](const auto& st) { return st.run_seconds; });
                  }));
    r.metrics.set("service.overhead_s", med([&](const auto& b) {
                    return b.service.total_run_seconds - sorter_sum(b, staging) -
                           sorter_sum(b, inner) - sorter_sum(b, merging);
                  }));
    const BatchResult& last = batches[untraced - 1];
    r.metrics.set("service.steps", static_cast<double>(last.service.total_steps));
    r.metrics.set("service.checkpoints",
                  static_cast<double>(last.service.checkpoints_written));
    r.metrics.set("service.journal_bytes", static_cast<double>(last.journal_bytes));
    r.metrics.set("service.queue_rounds",
                  static_cast<double>(last.service.queue_rounds));
    r.metrics.set("service.degraded_jobs",
                  static_cast<double>(last.service.jobs_degraded));
    // Layers of a batch are the jobs' run times spread over the
    // concurrency slots; the residual is slot time no job used.
    r.metrics.set("trace.residual_s", med([&](const BatchResult& b) {
                    return b.makespan_s - b.service.total_run_seconds /
                                              scfg.max_concurrent;
                  }));
    r.metrics.set("trace.overhead_s", median(traced_s) - makespan);
  }
  std::filesystem::remove_all(dir);

  r.metrics.set("setup_s", setup_s);
  r.metrics.set("peak_rss_mib", peak_rss);
  r.metrics.set("throughput_mib_per_s", bytes / 1048576.0 / makespan);
  r.metrics.set("request_p50_s", median(latencies));
  const BatchResult& first = batches.front();
  r.notes.push_back(
      "sort_service: " + std::to_string(jobs) + " jobs of " +
      std::to_string(elements) + " int64, " +
      std::to_string(first.service.jobs_degraded) + " degraded, " +
      std::to_string(first.service.queue_rounds) + " queue rounds, " +
      std::to_string(rep_s.size()) + " timed batches, jobs_per_s=" +
      std::to_string(jobs / makespan) +
      ", job_latency_p50_s=" + std::to_string(median(latencies)));
  r.notes.push_back(format_times("makespan_s", rep_s));
  return r;
}

}  // namespace hostbench
