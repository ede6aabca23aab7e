#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace hostbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"throughput_mib_per_s", "MiB/s"},
    {"request_p50_s", "s"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"sort.serial_sort_s", "s"},
    {"sort.serial_sort_melem_per_s", "Melem/s"},
    {"sort.megachunk_merge_s", "s"},
    {"sort.final_merge_s", "s"},
    {"sort.merge_melem_per_s", "Melem/s"},
    {"sort.two_run_merge_melem_per_s", "Melem/s"},
    {"parallel.copy_in_s", "s"},
    {"parallel.copy_in_bytes", "bytes"},
    {"parallel.memcpy_gib_per_s", "GiB/s"},
    {"core.pipeline.copy_in_busy_s", "s"},
    {"core.pipeline.compute_busy_s", "s"},
    {"core.pipeline.copy_out_busy_s", "s"},
    {"core.pipeline.stage_overlap", "ratio"},
    {"core.pipeline.bw_fraction", "ratio"},
    {"core.pipeline.chunks", "count"},
    {"core.pipeline.steps", "count"},
    {"core.mlm_sort.megachunks", "count"},
    {"core.external_sort.staging_s", "s"},
    {"core.external_sort.inner_sort_s", "s"},
    {"core.external_sort.merge_s", "s"},
    {"service.queue_wait_p50_s", "s"},
    {"service.run_p50_s", "s"},
    {"service.overhead_s", "s"},
    {"service.steps", "count"},
    {"service.checkpoints", "count"},
    {"service.journal_bytes", "bytes"},
    {"service.queue_rounds", "count"},
    {"service.degraded_jobs", "count"},
    {"kvstore.lookup_s", "s"},
    {"kvstore.lookup_mops_per_s", "Mops/s"},
    {"kvstore.fold_s", "s"},
    {"kvstore.plan_s", "s"},
    {"kvstore.migrate_s", "s"},
    {"kvstore.segments_moved", "count"},
    {"kvstore.migrated_bytes", "bytes"},
    {"kvstore.near_hit_rate", "ratio"},
    {"kvstore.epochs", "count"},
    {"trace.residual_s", "s"},
    {"trace.overhead_s", "s"},
};

namespace {

bool known_metric(const std::string& name) {
  for (const auto* table : {&kEndToEnd, &kPerLayer}) {
    for (const MetricSpec& m : *table) {
      if (name == m.name) return true;
    }
  }
  return false;
}

const auto g_process_start = std::chrono::steady_clock::now();

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// Parse a sysfs cache size ("307200K", "8M", "512").
std::uint64_t parse_size(const std::string& s) {
  if (s.empty()) return 0;
  std::uint64_t v = std::strtoull(s.c_str(), nullptr, 10);
  switch (s.back()) {
    case 'K': return v << 10;
    case 'M': return v << 20;
    case 'G': return v << 30;
    default: return v;
  }
}

}  // namespace

void Metrics::set(const std::string& name, double value) {
  if (!known_metric(name)) {
    throw std::logic_error("hostbench: unknown metric '" + name + "'");
  }
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

bool Metrics::has(const std::string& name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) return true;
  }
  return false;
}

double Metrics::get(const std::string& name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) return v;
  }
  throw std::logic_error("hostbench: metric '" + name + "' not set");
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  notes.push_back("CHECK FAILED: " + what);
}

double process_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_process_start)
      .count();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

MachineInfo machine_info() {
  MachineInfo m;
  m.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        m.cpu_model = line.substr(colon + 1);
        m.cpu_model.erase(0, m.cpu_model.find_first_not_of(' '));
      }
      break;
    }
  }
  // The highest-level data or unified cache of cpu0.
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = read_first_line(dir + "level");
    if (level.empty()) break;
    if (read_first_line(dir + "type") == "Instruction") continue;
    const int l = std::atoi(level.c_str());
    if (l >= m.llc_level) {
      m.llc_level = l;
      m.llc_bytes = parse_size(read_first_line(dir + "size"));
    }
  }
  if (m.llc_bytes == 0) {
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (l3 > 0) {
      m.llc_level = 3;
      m.llc_bytes = static_cast<std::uint64_t>(l3);
    }
  }
  return m;
}

SpanLog::SpanLog() { spans_.reserve(4096); }

std::size_t SpanLog::open(std::string name, std::string layer,
                          std::size_t parent) {
  const double now = epoch_.elapsed_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), std::move(layer), now, now, parent});
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t id) {
  const double now = epoch_.elapsed_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end = now;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void SpanLog::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
       << s.name << "\", \"layer\": \"" << s.layer
       << "\", \"start_s\": " << s.start << ", \"end_s\": " << s.end
       << ", \"parent\": ";
    if (s.parent == kNoParent) {
      os << "null}";
    } else {
      os << s.parent << "}";
    }
  }
  os << "\n]";
}

Digest digest_of(std::span<const std::int64_t> values) {
  Digest d;
  for (const std::int64_t v : values) d.add(v);
  return d;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string format_times(const std::string& name,
                         const std::vector<double>& seconds) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << name << "=[";
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    os << (i == 0 ? "" : " ") << seconds[i];
  }
  os << "]";
  return os.str();
}

std::vector<double> repeat_for(
    double seconds, std::size_t min_reps,
    const std::function<double(std::size_t)>& rep) {
  std::vector<double> times;
  const mlm::Stopwatch clock;
  while (times.size() < min_reps || clock.elapsed_s() < seconds) {
    times.push_back(rep(times.size()));
  }
  return times;
}

}  // namespace hostbench
