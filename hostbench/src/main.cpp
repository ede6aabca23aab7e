// hostbench: host end-to-end benchmark of the multilevel-memory library.
//
//   hostbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//   hostbench --selftest [--out-dir DIR]
//   hostbench --list-metrics
//
// A run prints its machine, notes, and as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: every end-to-end
// metric when untraced, every per-layer metric when traced.  --selftest
// runs every workload at small sizes, traced and untraced, and requires
// each output check to catch a deliberately corrupted output.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include <unistd.h>

#include "common.h"

namespace {

using namespace hostbench;

using WorkloadFn = Result (*)(const Options&, SpanLog&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> table = {
      {"mlm_sort", &run_mlm_sort},
      {"chunk_stream", &run_chunk_stream},
      {"sort_service", &run_sort_service},
      {"kv_zipf", &run_kv_zipf},
  };
  return table;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The JSON result line: the metric table the run's mode prints, in
/// table order.  Per-layer metrics a workload does not exercise read 0;
/// an end-to-end metric a workload forgot to set is a bug.
std::string result_json(const Result& r, bool trace) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  const auto& table = trace ? kPerLayer : kEndToEnd;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const MetricSpec& m = table[i];
    const double v = r.metrics.has(m.name) || !trace
                         ? r.metrics.get(m.name)
                         : 0.0;
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << format_number(v) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::string machine_line(const MachineInfo& m) {
  std::ostringstream os;
  os << "nproc=" << m.nproc << " llc=L" << m.llc_level << ":"
     << (m.llc_bytes >> 20) << "MiB cpu=\"" << m.cpu_model << "\"";
  return os.str();
}

void write_record(const Options& opt, const MachineInfo& m, const Result& r,
                  const SpanLog& spans, const std::string& json) {
  if (opt.out_dir.empty()) return;
  std::filesystem::create_directories(opt.out_dir);
  const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0") + "-pid" +
                           std::to_string(getpid()) + ".json";
  std::ofstream out(path);
  out << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
      << ", \"seconds\": " << opt.seconds
      << ", \"trace\": " << (opt.trace ? "true" : "false")
      << ",\n \"machine\": {\"nproc\": " << m.nproc << ", \"cpu_model\": \""
      << json_escape(m.cpu_model) << "\", \"llc_level\": " << m.llc_level
      << ", \"llc_bytes\": " << m.llc_bytes << "},\n \"notes\": [";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << json_escape(r.notes[i]) << "\"";
  }
  out << "],\n \"result\": " << json << ",\n \"spans\": ";
  spans.write_json(out);
  out << "}\n";
}

int run_one(const Options& opt) {
  const MachineInfo m = machine_info();
  SpanLog spans;
  const Result r = workloads().at(opt.workload)(opt, spans);
  const std::string json = result_json(r, opt.trace);
  write_record(opt, m, r, spans, json);
  std::cout << "# machine " << machine_line(m) << "\n";
  for (const std::string& note : r.notes) std::cout << "# " << note << "\n";
  std::cout << json << std::endl;
  return r.correct ? 0 : 1;
}

int selftest(const Options& base) {
  int bad = 0;
  for (const auto& [name, fn] : workloads()) {
    for (const bool trace : {false, true}) {
      Options opt = base;
      opt.workload = name;
      opt.trace = trace;
      opt.seconds = 0.05;
      opt.selftest = true;
      SpanLog spans;
      const Result r = fn(opt, spans);
      // Exercise the result formatting too: it throws on a missing
      // end-to-end metric.
      const std::string json = result_json(r, trace);
      std::cout << "selftest " << name << " trace=" << trace << ": "
                << (r.correct ? "ok" : "FAILED") << " (attempted "
                << r.attempted << ", spans " << spans.size() << ")\n";
      for (const std::string& note : r.notes) {
        std::cout << "  " << note << "\n";
      }
      if (!r.correct || r.failed != 0) ++bad;
    }
  }
  std::cout << (bad == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return bad == 0 ? 0 : 1;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hostbench: " << why
            << "\nusage: hostbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n"
               "       hostbench --selftest [--out-dir DIR]\n"
               "       hostbench --list-metrics\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool run_selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--out-dir") {
      opt.out_dir = value();
    } else if (arg == "--selftest") {
      run_selftest = true;
    } else if (arg == "--list-metrics") {
      for (const MetricSpec& m : kEndToEnd) {
        std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
      }
      for (const MetricSpec& m : kPerLayer) {
        std::cout << "per_layer " << m.name << " " << m.unit << "\n";
      }
      return 0;
    } else {
      usage("unknown argument " + arg);
    }
  }
  try {
    if (run_selftest) return selftest(opt);
    if (workloads().count(opt.workload) == 0) {
      usage("unknown workload '" + opt.workload + "'");
    }
    if (opt.seconds <= 0.0) usage("--seconds must be positive");
    return run_one(opt);
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << e.what() << "\n";
    return 3;
  }
}
