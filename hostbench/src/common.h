// Shared plumbing of the host end-to-end benchmark: options, the metric
// table every run prints, the in-memory span log of traced runs, input
// generators, order-independent digests and machine facts.
//
// The benchmark drives the library's public API from one process.  Every
// input is generated here from the workload seed; the library receives
// only the generated data.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "mlm/support/stopwatch.h"

namespace hostbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the run record (machine, metrics, spans) is written to;
  /// empty = no record file.
  std::string out_dir;
  /// Self-test mode: small sizes, and after the real checks pass, each
  /// workload corrupts its output and requires its checks to catch it.
  bool selftest = false;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, printed by every untraced run.
extern const std::vector<MetricSpec> kEndToEnd;
/// Every per-layer metric, printed by every traced run.  A layer the
/// workload does not exercise reads 0.
extern const std::vector<MetricSpec> kPerLayer;

/// Metric values keyed by name.  set() rejects names outside the two
/// tables, so a typo cannot silently add a metric.
class Metrics {
 public:
  void set(const std::string& name, double value);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;
 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// One workload run's outcome.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  /// Human-readable facts printed before the JSON line (workload-native
  /// rates, sizes, check results).
  std::vector<std::string> notes;

  /// Record a check; a false condition marks the run incorrect and
  /// notes why.
  void check(bool ok, const std::string& what);
};

/// Seconds since the process started (measured from static
/// initialisation, before main).
double process_seconds();

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

struct MachineInfo {
  std::size_t nproc = 0;
  std::string cpu_model;
  std::uint64_t llc_bytes = 0;
  int llc_level = 0;
};
MachineInfo machine_info();

/// A timed interval of a traced run: the layer it belongs to and the
/// span that caused it (kNoParent for a root).
struct Span {
  std::string name;
  std::string layer;
  double start = 0.0;
  double end = 0.0;
  std::size_t parent = 0;
};
inline constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

/// Spans of a traced run, kept in memory and written out when the run
/// ends.  Thread-safe: worker threads record kernel spans concurrently.
class SpanLog {
 public:
  SpanLog();
  std::size_t open(std::string name, std::string layer,
                   std::size_t parent = kNoParent);
  void close(std::size_t id);
  std::size_t size() const;
  void write_json(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  mlm::Stopwatch epoch_;
};

/// RAII span: opened at construction, closed at destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::string layer,
             std::size_t parent = kNoParent)
      : log_(log), id_(log.open(std::move(name), std::move(layer), parent)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::size_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::size_t id_;
};

/// Run `body(span_id)` inside a span and return its wall-clock seconds.
template <typename Body>
double timed_span(SpanLog& log, std::string name, std::string layer,
                  std::size_t parent, Body&& body) {
  const mlm::Stopwatch clock;
  {
    ScopedSpan span(log, std::move(name), std::move(layer), parent);
    body(span.id());
  }
  return clock.elapsed_s();
}

/// SplitMix64 finaliser: a bijective 64-bit mix.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Value of element `i` of the stream named by `seed`: counter-based, so
/// any slice can be generated independently and in parallel.
inline std::uint64_t stream_value(std::uint64_t seed, std::uint64_t i) {
  return mix64(mix64(seed) ^ mix64(i + 0x5851f42d4c957f2dull));
}

/// Sequential generator for the few inputs that are drawn in order.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(mix64(seed)) {}
  std::uint64_t next() { return mix64(state_++); }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Order-independent digest of a multiset of int64 values: two arrays
/// have equal digests when one is a permutation of the other (up to
/// 2^-64 collisions per component).
struct Digest {
  std::uint64_t sum = 0;
  std::uint64_t mixed_sum = 0;
  std::uint64_t mixed_xor = 0;
  void add(std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    const std::uint64_t m = mix64(u);
    sum += u;
    mixed_sum += m;
    mixed_xor ^= m;
  }
  friend bool operator==(const Digest&, const Digest&) = default;
};
Digest digest_of(std::span<const std::int64_t> values);

double median(std::vector<double> v);

/// "name=[a b c]" with millisecond precision, for run notes.
std::string format_times(const std::string& name,
                         const std::vector<double>& seconds);

/// Run `rep` repeatedly until `seconds` have elapsed and at least
/// `min_reps` repetitions have run.  `rep(index)` returns the seconds it
/// timed (untimed preparation inside it is excluded); the returned
/// vector holds one entry per repetition.
std::vector<double> repeat_for(double seconds, std::size_t min_reps,
                               const std::function<double(std::size_t)>& rep);

/// Workload entry points.  Each fills every end-to-end metric (untraced)
/// or the per-layer metrics it exercises (traced).
Result run_mlm_sort(const Options& opt, SpanLog& spans);
Result run_chunk_stream(const Options& opt, SpanLog& spans);
Result run_sort_service(const Options& opt, SpanLog& spans);
Result run_kv_zipf(const Options& opt, SpanLog& spans);

}  // namespace hostbench
