// kv_zipf: kv::run_workload with the freq-threshold policy replays a
// Zipf 0.99 lookup trace against a TieredKvStore of 64-byte records.
// The near tier holds 1/4 of the records and 4 workers serve lookups.
// Every timed repetition starts from a freshly populated store, because
// migration work is front-loaded.  The only workload where the library
// writes (segment migrations) next to its reads.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "common.h"
#include "mlm/kvstore/heat.h"
#include "mlm/kvstore/migration.h"
#include "mlm/kvstore/policy.h"
#include "mlm/kvstore/store.h"
#include "mlm/kvstore/workload.h"
#include "mlm/parallel/parallel_for.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/support/cache_line.h"

namespace hostbench {

namespace {

constexpr std::size_t kValueBytes = 56;
constexpr std::size_t kWords = kValueBytes / 8;

/// The value the benchmark puts for `key`.
void value_of(std::uint64_t seed, std::uint64_t key, std::uint64_t* out) {
  for (std::size_t w = 0; w < kWords; ++w) {
    out[w] = stream_value(seed ^ 0x6b76, key * kWords + w);
  }
}

/// Zipf(skew) lookups over `keys` keys: rank r is drawn with weight
/// 1/(r+1)^skew, then mapped through a seeded rank->key permutation so
/// the hot set is scattered across segments.
std::vector<std::uint64_t> zipf_trace(mlm::Executor& pool, std::size_t keys,
                                      std::size_t ops, double skew,
                                      std::uint64_t seed) {
  std::vector<double> cdf(keys);
  double sum = 0.0;
  for (std::size_t r = 0; r < keys; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), skew);
    cdf[r] = sum;
  }
  for (double& c : cdf) c /= sum;
  std::vector<std::uint64_t> perm(keys);
  for (std::size_t i = 0; i < keys; ++i) perm[i] = i;
  Rng rng(seed ^ 0x7065726d);
  for (std::size_t i = keys - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.below(i + 1)]);
  }
  std::vector<std::uint64_t> trace(ops);
  mlm::parallel_for_ranges(pool, 0, ops, [&](mlm::IndexRange rg) {
    for (std::size_t i = rg.begin; i < rg.end; ++i) {
      const double u =
          static_cast<double>(stream_value(seed, i) >> 11) * 0x1.0p-53;
      const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
      const std::size_t rank = std::min<std::size_t>(
          static_cast<std::size_t>(it - cdf.begin()), keys - 1);
      trace[i] = perm[rank];
    }
  });
  return trace;
}

struct EpochTimes {
  double lookup = 0.0;
  double fold = 0.0;
  double plan = 0.0;
  double migrate = 0.0;
  double total = 0.0;
  std::size_t epochs = 0;
  std::size_t segments_moved = 0;
  std::uint64_t migrated_bytes = 0;
  std::size_t near_hits = 0;
  std::size_t far_hits = 0;
  std::vector<std::string> placement_trace;

  double layers() const { return lookup + fold + plan + migrate; }
};

/// run_workload's epoch loop, replayed through the public calls
/// (TieredKvStore::get, HeatMonitor::fold_epoch, plan_migration,
/// MigrationEngine::run) with each phase timed as its own span.
EpochTimes traced_workload(mlm::kv::TieredKvStore& store, mlm::Executor& exec,
                           const std::vector<std::uint64_t>& trace,
                           const mlm::kv::WorkloadConfig& cfg, SpanLog& log) {
  struct alignas(mlm::kCacheLineBytes) Tally {
    std::size_t near_hits = 0;
    std::size_t far_hits = 0;
    std::uint64_t checksum = 0;
  };
  EpochTimes t;
  const mlm::Stopwatch total;
  ScopedSpan root(log, "kv.traced_workload", "kvstore");
  const std::size_t workers = exec.size();
  store.monitor().ensure_shards(workers);
  mlm::kv::MigrationEngine engine(store, cfg.degrade);
  std::vector<Tally> tallies(workers);
  const std::size_t stride = mlm::round_up(kValueBytes, mlm::kCacheLineBytes);
  std::vector<std::uint8_t> scratch(workers * stride);

  for (std::size_t begin = 0; begin < trace.size(); begin += cfg.epoch_ops) {
    const std::size_t end = std::min(begin + cfg.epoch_ops, trace.size());
    ScopedSpan epoch(log, "epoch", "kvstore", root.id());
    t.lookup += timed_span(log, "get", "kvstore", epoch.id(), [&](std::size_t) {
      exec.run_on_all([&](std::size_t w) {
        Tally& tally = tallies[w];
        std::uint8_t* out = scratch.data() + w * stride;
        for (std::size_t i = begin + w; i < end; i += workers) {
          bool was_near = false;
          if (store.get(trace[i], out, w, &was_near)) {
            ++(was_near ? tally.near_hits : tally.far_hits);
            tally.checksum ^= out[0];
          }
        }
      });
    });
    t.fold += timed_span(log, "fold_epoch", "kvstore", epoch.id(),
                         [&](std::size_t) { store.monitor().fold_epoch(); });
    mlm::kv::MigrationPlan plan;
    t.plan += timed_span(log, "plan_migration", "kvstore", epoch.id(),
                         [&](std::size_t) {
                           plan = mlm::kv::plan_migration(
                               store, store.monitor(), cfg.policy);
                         });
    t.placement_trace.push_back(plan.to_string());
    if (!plan.empty()) {
      t.migrate += timed_span(
          log, "migrate", "kvstore", epoch.id(), [&](std::size_t) {
            const mlm::kv::MigrationStats moved = engine.run(plan);
            t.segments_moved += moved.promoted + moved.demoted;
            t.migrated_bytes += moved.moved_bytes;
          });
    }
    ++t.epochs;
  }
  for (const Tally& tally : tallies) {
    t.near_hits += tally.near_hits;
    t.far_hits += tally.far_hits;
  }
  t.total = total.elapsed_s();
  return t;
}

}  // namespace

Result run_kv_zipf(const Options& opt, SpanLog& spans) {
  Result r;
  // Full size: 1 Mi keys, 8 Mi lookups, 64 Ki lookups per epoch.
  // Self-test: 16 Ki keys, 128 Ki lookups, 8 Ki per epoch.
  const std::size_t keys = opt.selftest ? 16384 : 1 << 20;
  const std::size_t ops = opt.selftest ? 131072 : 8 << 20;
  const std::size_t workers = 4;

  mlm::kv::KvConfig kcfg;
  kcfg.value_bytes = kValueBytes;
  kcfg.records_per_segment = 64;
  kcfg.initial_buckets = 2 * keys;
  kcfg.index_prefers_near = false;  // the near tier holds records only
  const std::size_t segment_bytes = (kValueBytes + 8) * kcfg.records_per_segment;
  const std::size_t segments = keys / kcfg.records_per_segment;

  mlm::HierarchyConfig hcfg;
  hcfg.tiers = {mlm::TierConfig{"ddr", mlm::MemKind::DDR, 0},
                mlm::TierConfig{"mcdram", mlm::MemKind::MCDRAM,
                                segments / 4 * segment_bytes}};
  hcfg.mode = mlm::McdramMode::Flat;
  mlm::MemoryHierarchy hier(hcfg);
  mlm::ThreadPool exec(workers, "kv");

  mlm::kv::WorkloadConfig wcfg;
  wcfg.epoch_ops = opt.selftest ? 8192 : 65536;
  wcfg.policy.policy = mlm::kv::PlacementPolicy::FreqThreshold;

  const std::vector<std::uint64_t> trace =
      zipf_trace(exec, keys, ops, 0.99, opt.seed);
  auto populate = [&] {
    auto store = std::make_unique<mlm::kv::TieredKvStore>(hier, kcfg);
    std::uint64_t value[kWords];
    for (std::uint64_t k = 0; k < keys; ++k) {
      value_of(opt.seed, k, value);
      store->put(k, value);
    }
    return store;
  };
  // Sampled keys whose values are checked after each replay.
  std::vector<std::uint64_t> sample(opt.selftest ? 256 : 4096);
  Rng pick(opt.seed ^ 0x73616d70);
  for (std::uint64_t& k : sample) k = pick.below(keys);
  auto values_ok = [&](mlm::kv::TieredKvStore& store) {
    std::uint64_t got[kWords];
    std::uint64_t want[kWords];
    for (const std::uint64_t k : sample) {
      value_of(opt.seed, k, want);
      if (!store.get(k, got) || std::memcmp(got, want, kValueBytes) != 0) {
        return false;
      }
    }
    return true;
  };

  // Populate (which touches the store's working set), then one warm-up
  // replay.
  mlm::kv::run_workload(*populate(), exec, trace, wcfg);
  const double setup_s = process_seconds();

  std::vector<mlm::kv::WorkloadStats> stats;
  std::unique_ptr<mlm::kv::TieredKvStore> store;
  const std::vector<double> rep_s = repeat_for(
      opt.trace ? opt.seconds / 2 : opt.seconds, 3, [&](std::size_t) {
        store.reset();
        store = populate();
        const std::uint64_t before = store->contents_digest();
        const mlm::Stopwatch clock;
        stats.push_back(mlm::kv::run_workload(*store, exec, trace, wcfg));
        const double s = clock.elapsed_s();
        const mlm::kv::WorkloadStats& st = stats.back();
        r.check(st.misses == 0 && st.near_hits + st.far_hits == ops,
                "every lookup hits: misses == 0, near + far hits == ops");
        r.check(store->contents_digest() == before,
                "contents_digest is unchanged by migration");
        r.check(values_ok(*store), "sampled gets return the values put");
        r.check(st.placement_trace == stats.front().placement_trace,
                "placement trace repeats from a fresh store");
        return s;
      });
  const double peak_rss = peak_rss_mib();
  r.attempted = rep_s.size() * ops;
  const double replay_s = median(rep_s);

  if (opt.selftest) {
    // Probe: one changed record value must be caught by the value check
    // and by the digest.
    const std::uint64_t before = store->contents_digest();
    std::uint64_t value[kWords];
    value_of(opt.seed, sample.front(), value);
    value[0] ^= 1;
    store->put(sample.front(), value);
    r.check(!values_ok(*store),
            "probe: the value check catches one changed record value");
    r.check(store->contents_digest() != before,
            "probe: contents_digest catches one changed record value");
  }

  if (opt.trace) {
    std::vector<EpochTimes> replays;
    repeat_for(opt.seconds / 2, 2, [&](std::size_t) {
      store.reset();
      store = populate();
      replays.push_back(traced_workload(*store, exec, trace, wcfg, spans));
      return replays.back().total;
    });
    r.attempted += replays.size() * ops;
    const mlm::kv::WorkloadStats& ref = stats.front();
    for (const EpochTimes& t : replays) {
      r.check(t.placement_trace == ref.placement_trace,
              "traced replay's placement trace equals run_workload's");
      r.check(t.near_hits == ref.near_hits && t.far_hits == ref.far_hits,
              "traced replay's hits equal run_workload's");
    }
    auto med = [&](double EpochTimes::*field) {
      std::vector<double> v;
      for (const EpochTimes& t : replays) v.push_back(t.*field);
      return median(v);
    };
    std::vector<double> layer_sums;
    for (const EpochTimes& t : replays) layer_sums.push_back(t.layers());
    const double lookup = med(&EpochTimes::lookup);
    r.metrics.set("kvstore.lookup_s", lookup);
    r.metrics.set("kvstore.lookup_mops_per_s", ops / 1e6 / lookup);
    r.metrics.set("kvstore.fold_s", med(&EpochTimes::fold));
    r.metrics.set("kvstore.plan_s", med(&EpochTimes::plan));
    r.metrics.set("kvstore.migrate_s", med(&EpochTimes::migrate));
    r.metrics.set("kvstore.segments_moved",
                  static_cast<double>(replays.front().segments_moved));
    r.metrics.set("kvstore.migrated_bytes",
                  static_cast<double>(replays.front().migrated_bytes));
    r.metrics.set("kvstore.near_hit_rate", ref.near_hit_rate());
    r.metrics.set("kvstore.epochs", static_cast<double>(ref.epochs));
    r.metrics.set("trace.residual_s", replay_s - median(layer_sums));
    r.metrics.set("trace.overhead_s", med(&EpochTimes::total) - replay_s);
  }

  r.metrics.set("setup_s", setup_s);
  r.metrics.set("peak_rss_mib", peak_rss);
  r.metrics.set("throughput_mib_per_s",
                ops * (kValueBytes + 8) / 1048576.0 / replay_s);
  r.metrics.set("request_p50_s", replay_s);
  const mlm::kv::WorkloadStats& st = stats.front();
  r.notes.push_back(
      "kv_zipf: " + std::to_string(keys) + " keys, " + std::to_string(ops) +
      " lookups, " + std::to_string(st.epochs) + " epochs, near_hit_rate=" +
      std::to_string(st.near_hit_rate()) + ", segments moved=" +
      std::to_string(st.migration.promoted + st.migration.demoted) + ", " +
      std::to_string(rep_s.size()) + " timed replays, kv_mops_per_s=" +
      std::to_string(ops / 1e6 / replay_s));
  r.notes.push_back(format_times("replay_s", rep_s));
  return r;
}

}  // namespace hostbench
