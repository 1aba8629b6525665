// perfbench: the repo benchmark program.
//
//   perfbench --workload=<dmr-refine|graph-solve|serve-mix> --seed=<n>
//             --seconds=<s> --trace=<0|1> --bin-dir=<dir> --out-dir=<dir>
//             --declared=<BENCHMARK.json>
//             [--tiny] [--corrupt=<mst|pta|sp|serve|serve-digest>]
//
// Prints a human-readable report and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: with --trace=0 the
// end-to-end metrics, with --trace=1 the per-layer metrics of a traced run,
// exactly as --declared lists them.
// Exits 1 on a wrong answer, 2 on bad arguments or a harness error.
// --tiny shrinks every input (smoke tests); --corrupt perturbs one answer
// before it is checked, to test that the checks catch it.
#include <algorithm>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "telemetry/json.hpp"

namespace {

using perfbench::Metric;
using perfbench::safe_div;
using morph::telemetry::Json;

/// The metrics one list of BENCHMARK.json declares, as (name, unit).
using Declared = std::vector<std::pair<std::string, std::string>>;

Declared declared(const Json& bench, const char* list) {
  Declared out;
  const Json& metrics = bench.at(list);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out.emplace_back(metrics.at(i).at("name").as_string(), metrics.at(i).at("unit").as_string());
  }
  return out;
}

bool flag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload=<dmr-refine|graph-solve|serve-mix>"
               " --seed=<n> --seconds=<s> --trace=<0|1> --bin-dir=<dir>"
               " --out-dir=<dir> --declared=<BENCHMARK.json> [--tiny]"
               " [--corrupt=<what>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string declared_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    try {
      if (flag(a, "workload", &v)) {
        opt.workload = v;
      } else if (flag(a, "seed", &v)) {
        opt.seed = std::stoull(v);
      } else if (flag(a, "seconds", &v)) {
        opt.seconds = std::stod(v);
      } else if (flag(a, "trace", &v)) {
        if (v != "0" && v != "1") return usage("--trace must be 0 or 1");
        opt.trace = v == "1";
      } else if (flag(a, "bin-dir", &v)) {
        opt.bin_dir = v;
      } else if (flag(a, "out-dir", &v)) {
        opt.out_dir = v;
      } else if (flag(a, "declared", &v)) {
        declared_path = v;
      } else if (flag(a, "corrupt", &v)) {
        opt.corrupt = v;
      } else if (a == "--tiny") {
        opt.tiny = true;
      } else {
        return usage("unknown argument " + a);
      }
    } catch (const std::exception&) {
      return usage("bad value in " + a);
    }
  }
  if (opt.seconds <= 0.0) return usage("--seconds must be positive");
  if (opt.bin_dir.empty() || opt.out_dir.empty() || declared_path.empty()) {
    return usage("--bin-dir, --out-dir and --declared are required");
  }
  Declared metric_list;
  try {
    std::ifstream in(declared_path);
    std::stringstream text;
    text << in.rdbuf();
    metric_list = declared(Json::parse(text.str()), opt.trace ? "per_layer" : "end_to_end");
  } catch (const std::exception& e) {
    return usage("cannot read the declared metrics in " + declared_path + ": " + e.what());
  }
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());

  perfbench::Spans spans(opt.trace);
  perfbench::Result res;
  try {
    if (opt.workload == "dmr-refine") {
      res = perfbench::run_dmr_refine(opt, spans);
    } else if (opt.workload == "graph-solve") {
      res = perfbench::run_graph_solve(opt, spans);
    } else if (opt.workload == "serve-mix") {
      res = perfbench::run_serve_mix(opt, spans);
    } else {
      return usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what() << "\n";
    return 2;
  }

  Json metrics = Json::object();
  if (opt.trace) {
    res.set("check.fail_frac",
            safe_div(static_cast<double>(res.failed), static_cast<double>(res.attempted)),
            "ratio");
  }
  for (const auto& [name, unit] : metric_list) {
    const auto it = res.metrics.find(name);
    if (it == res.metrics.end()) {
      if (!opt.trace) {
        std::cerr << "perfbench: end-to-end metric " << name << " missing\n";
        return 2;
      }
      // A layer this workload does not run reads 0.
      std::cout << "layer metric " << name << ": not exercised by " << opt.workload << "\n";
    }
    const Metric m = it == res.metrics.end() ? Metric{0.0, unit} : it->second;
    if (m.unit != unit) {
      std::cerr << "perfbench: metric " << name << " has unit " << m.unit << ", declared "
                << unit << "\n";
      return 2;
    }
    Json j = Json::object();
    j.set("value", m.value);
    j.set("unit", m.unit);
    metrics.set(name, std::move(j));
  }
  if (opt.trace) {
    // Self time per span name, derived from the recorded spans.
    for (const auto& [name, t] : spans.totals()) {
      std::cout << "span " << name << " count " << t.count << " total_s " << t.total_s
                << " self_s " << t.self_s << "\n";
    }
    const std::string path = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".jsonl";
    if (spans.write(path)) std::cout << "spans written to " << path << "\n";
  }
  if (res.attempted == 0) {
    std::cerr << "perfbench: no operation attempted\n";
    return 2;
  }

  Json out = Json::object();
  out.set("correct", res.correct);
  out.set("attempted", res.attempted);
  out.set("failed", res.failed);
  out.set("metrics", std::move(metrics));
  std::cout << out.dump() << std::endl;
  return res.correct ? 0 : 1;
}
