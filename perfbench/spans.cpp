#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <utility>

#include "common.hpp"
#include "telemetry/json.hpp"

namespace perfbench {

void Result::wrong(const std::string& what) {
  correct = false;
  ++failed;
  std::cerr << "perfbench: WRONG ANSWER: " << what << "\n";
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in kB
}

void reset_peak_rss() {
  // "5" resets VmHWM to the current RSS (Linux clear_refs).
  std::ofstream("/proc/self/clear_refs") << "5";
}

int Spans::begin(const std::string& name, int parent, std::uint64_t request) {
  if (!enabled_) return -1;
  const double now = seconds_since(t0_);
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(Span{name, now, -1.0, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void Spans::end(int id) {
  if (id < 0) return;
  const double now = seconds_since(t0_);
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end_s = now;
}

std::map<std::string, Spans::Totals> Spans::totals() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_s >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_s < 0) continue;
    const double dur = s.end_s - s.start_s;
    // Union of the children's intervals, clipped to the parent's.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, run_lo = 0.0, run_hi = -1.0;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_s);
      hi = std::min(hi, s.end_s);
      if (hi <= lo) continue;
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    Totals& t = out[s.name];
    t.total_s += dur;
    t.self_s += dur - covered;
    ++t.count;
  }
  return out;
}

bool Spans::write(const std::string& path) const {
  std::ofstream os(path);
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    morph::telemetry::Json j = morph::telemetry::Json::object();
    j.set("id", static_cast<std::uint64_t>(i));
    j.set("name", s.name);
    j.set("start_s", s.start_s);
    j.set("end_s", s.end_s);
    j.set("parent", static_cast<std::int64_t>(s.parent));
    if (s.request != 0) j.set("request", s.request);
    os << j.dump() << "\n";
  }
  return static_cast<bool>(os);
}

}  // namespace perfbench
