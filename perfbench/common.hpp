// Shared pieces of the perfbench binary: options, the metric sink, sample
// statistics, process clocks, and the span recorder of the traced run.
//
// The benchmark drives the morph libraries and the morph-served daemon from
// outside: it times calls into each layer's public functions and never
// changes program code. See BENCHMARK.json and perfbench/layers.json.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;       ///< per-layer run (spans, TraceSink, hw1 baseline)
  bool tiny = false;        ///< smoke-test input sizes
  std::string corrupt;      ///< test hook: perturb one answer before checking
  std::string bin_dir;      ///< directory holding morph-served
  std::string out_dir;      ///< socket, journal and span files
  std::uint32_t nproc = 1;  ///< host workers of the batch solves
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `failed` counts failed, refused and wrong
/// operations; `correct` turns false only on a wrong answer.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a wrong answer (printed to stderr).
  void wrong(const std::string& what);
};

// --- helpers ---

/// Splitmix64 of (seed, i): independent input seeds from one --seed.
inline std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + i + 1;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4595bull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline double safe_div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

// --- sample statistics ---

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// --- clocks ---

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
/// CPU seconds of this process, all threads (user + system). The kernel
/// leaves out time a hypervisor stole from the vCPU (paravirt steal clock).
double process_cpu_seconds();
/// Peak resident set of this process in MB since the last reset_peak_rss()
/// (since start when the kernel offers no reset).
double peak_rss_mb();
void reset_peak_rss();

// --- spans of the traced run ---

/// In-memory span log: name, start, end, parent span and request id. Spans
/// are recorded from the benchmark's own code around each layer call and
/// written out when the run ends. A disabled recorder costs one branch.
class Spans {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  ///< since the recorder was created
    double end_s = -1.0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (-1 when disabled). Thread-safe.
  int begin(const std::string& name, int parent = -1,
            std::uint64_t request = 0);
  void end(int id);

  /// Per span name: total duration and self time (duration minus the part
  /// of it covered by child spans), in seconds.
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Totals> totals() const;

  /// Writes every span as JSON lines; returns false on an I/O error.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point t0_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Spans& s, const std::string& name, int parent = -1,
        std::uint64_t request = 0)
      : spans_(s), id_(s.begin(name, parent, request)) {}
  ~Scope() { spans_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Spans& spans_;
  int id_;
};

// --- workloads ---

Result run_dmr_refine(const Options& opt, Spans& spans);
Result run_graph_solve(const Options& opt, Spans& spans);
Result run_serve_mix(const Options& opt, Spans& spans);

}  // namespace perfbench
