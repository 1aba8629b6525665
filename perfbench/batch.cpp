// The batch workloads: dmr-refine and graph-solve.
//
// Both repeat one pass over a fixed list of solver calls until --seconds
// have elapsed. Only the solver call itself is timed; input copies, device
// construction and answer checks sit outside the timed region. The first
// pass's answers are checked in full (the CPU reference arms run here, as
// checks); every later pass must reproduce the first pass's outcome
// exactly, since the solvers are deterministic.
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "dmr/delaunay.hpp"
#include "dmr/refine.hpp"
#include "gpu/config.hpp"
#include "gpu/device.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "mst/mst.hpp"
#include "pta/constraints.hpp"
#include "pta/solve.hpp"
#include "sp/factor_graph.hpp"
#include "sp/survey.hpp"
#include "telemetry/json.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {
namespace {

using morph::gpu::Device;
using morph::gpu::DeviceConfig;
using morph::gpu::DeviceStats;

/// Layer counters of one solver call, by per-layer metric name.
using Counters = std::vector<std::pair<std::string, double>>;

/// One prepared input and its solver call.
class Input {
 public:
  Input(std::string layer, std::string name)
      : layer_(std::move(layer)), name_(std::move(name)) {}
  virtual ~Input() = default;
  Input(const Input&) = delete;
  Input& operator=(const Input&) = delete;

  const std::string& layer() const { return layer_; }
  const std::string& name() const { return name_; }

  /// Untimed work before each solve (a fresh copy of a mutable input).
  virtual void prepare() {}
  /// The timed solver call; keeps its output for check().
  virtual Counters solve(Device& dev) = 0;
  /// Checks the last solve's output; returns "" or what is wrong.
  virtual std::string check(const Options& opt) = 0;

 private:
  std::string layer_, name_;
};

// --- dmr ---

class DmrInput : public Input {
 public:
  DmrInput(std::string name, morph::dmr::Mesh base)
      : Input("dmr", std::move(name)), base_(std::move(base)) {}
  void prepare() override { out_ = base_; }
  Counters solve(Device& dev) override {
    // Paper defaults: 3-phase conflicts, hierarchical barrier, adaptive
    // configuration, layout optimisation, recycling.
    const morph::dmr::RefineStats st = morph::dmr::refine_gpu(out_, dev);
    return {{"dmr.rounds", static_cast<double>(st.rounds)},
            {"dmr.processed", static_cast<double>(st.processed)},
            {"dmr.aborted", static_cast<double>(st.aborted)},
            {"dmr.final_triangles", static_cast<double>(st.final_triangles)}};
  }
  std::string check(const Options&) override {
    std::string why;
    if (!out_.validate(&why)) return "refined mesh invalid: " + why;
    const std::size_t bad = out_.compute_all_bad(30.0);
    if (bad != 0) return std::to_string(bad) + " bad triangles left";
    return "";
  }

 private:
  morph::dmr::Mesh base_, out_;
};

// --- pta ---

class PtaInput : public Input {
 public:
  PtaInput(std::string name, morph::pta::ConstraintSet cs)
      : Input("pta", std::move(name)), cs_(std::move(cs)) {}
  Counters solve(Device& dev) override {
    morph::pta::PtaStats st;
    pts_ = morph::pta::solve_gpu(cs_, dev, {}, &st);
    return {{"pta.iterations", static_cast<double>(st.iterations)},
            {"pta.edges_added", static_cast<double>(st.edges_added)},
            {"pta.pts_total", static_cast<double>(st.pts_total)}};
  }
  std::string check(const Options& opt) override {
    if (opt.corrupt == "pta") {
      // Drop one points-to element: the closure no longer holds.
      for (auto& s : pts_) {
        if (!s.empty()) {
          s.pop_back();
          break;
        }
      }
    }
    return morph::pta::check_solution(cs_, pts_)
               ? ""
               : "points-to solution fails check_solution";
  }

 private:
  morph::pta::ConstraintSet cs_;
  morph::pta::PtsSets pts_;
};

// --- mst ---

class MstInput : public Input {
 public:
  MstInput(std::string name, morph::graph::CsrGraph g)
      : Input("mst", std::move(name)), g_(std::move(g)) {}
  Counters solve(Device& dev) override {
    res_ = morph::mst::mst_gpu(g_, dev);
    return {{"mst.rounds", static_cast<double>(res_.rounds)},
            {"mst.total_weight", static_cast<double>(res_.total_weight)}};
  }
  std::string check(const Options& opt) override {
    // Kruskal is the CPU reference arm: an answer check, never timed.
    const morph::mst::MstResult kr = morph::mst::mst_kruskal(g_);
    std::uint64_t w = res_.total_weight;
    if (opt.corrupt == "mst") ++w;
    if (w != kr.total_weight || res_.tree_edges != kr.tree_edges) {
      return "forest weight " + std::to_string(w) + " != Kruskal " +
             std::to_string(kr.total_weight);
    }
    return "";
  }

 private:
  morph::graph::CsrGraph g_;
  morph::mst::MstResult res_;
};

// --- sp ---

/// Fixed-sweep results recorded when the benchmark was defined (Fig. 9
/// inputs: formula seed 17, options seed 5, 3 phases x 30 sweeps). SP is
/// stochastic, so the check is against these digests, not a solver.
struct SpDigest {
  std::uint32_t n, k;
  std::uint64_t sweeps, fixed_by_sp;
  double modeled_cycles;
};
const SpDigest kSpDigests[] = {
    {2500, 3, 90, 73, 742532.13068181963},
    {2500, 4, 90, 73, 755001.04017856915},
    {2500, 5, 90, 73, 783639.92410714435},
    {200, 3, 90, 4, 734831.32499999995},
};

morph::sp::SpOptions fixed_sweep_options() {
  morph::sp::SpOptions o;
  o.seed = 5;
  o.eps = 0.0;  // run every sweep: a fixed, deterministic workload
  o.max_sweeps = 30;
  o.max_phases = 3;
  o.decimate_frac = 0.01;
  o.walksat_flips = 1;  // the endgame is not part of the measurement
  o.walksat_auto_budget = false;
  return o;
}

class SpInput : public Input {
 public:
  SpInput(std::string name, std::uint32_t n, std::uint32_t k,
          morph::sp::Formula f)
      : Input("sp", std::move(name)), n_(n), k_(k), f_(std::move(f)) {}
  Counters solve(Device& dev) override {
    res_ = morph::sp::solve_gpu(f_, dev, fixed_sweep_options());
    return {{"sp.sweeps", static_cast<double>(res_.sweeps)},
            {"sp.fixed_by_sp", static_cast<double>(res_.fixed_by_sp)}};
  }
  std::string check(const Options& opt) override {
    std::uint64_t fixed = res_.fixed_by_sp;
    if (opt.corrupt == "sp") ++fixed;
    for (const SpDigest& d : kSpDigests) {
      if (d.n != n_ || d.k != k_) continue;
      if (res_.sweeps != d.sweeps || fixed != d.fixed_by_sp ||
          res_.modeled_cycles != d.modeled_cycles) {
        std::ostringstream os;
        os.precision(17);
        os << "sp K=" << k_ << " sweeps " << res_.sweeps << " fixed "
           << fixed << " cycles " << res_.modeled_cycles
           << " differ from the recorded digest";
        return os.str();
      }
      return "";
    }
    return "no recorded digest for this sp input";
  }

 private:
  std::uint32_t n_, k_;
  morph::sp::Formula f_;
  morph::sp::SpResult res_;
};

using Inputs = std::vector<std::unique_ptr<Input>>;

// --- input generation (the set-up phase) ---

Inputs build_dmr_inputs(const Options& opt, Spans& spans, int parent) {
  // Four sizes rather than one: the peak memory of a refinement steps with
  // its arrays' capacity, and meshes of one size all step together.
  const std::vector<std::size_t> targets =
      opt.tiny ? std::vector<std::size_t>{2000}
               : std::vector<std::size_t>{35000, 45000, 55000, 65000};
  Inputs in;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    Scope s(spans, "dmr.mesh_gen", parent);
    in.push_back(std::make_unique<DmrInput>(
        "mesh" + std::to_string(targets[i] / 1000) + "k",
        morph::dmr::generate_input_mesh(targets[i], mix(opt.seed, i))));
  }
  return in;
}

Inputs build_graph_inputs(const Options& opt, Spans& spans, int parent) {
  Inputs in;
  // PTA: the six SPEC-2000-sized constraint sets of Fig. 10, fixed inputs
  // (the same instances as the fig10_pta bench rows).
  if (opt.tiny) {
    Scope s(spans, "pta.gen", parent);
    in.push_back(std::make_unique<PtaInput>(
        "tiny", morph::pta::synthetic_program(300, 360, opt.seed)));
  } else {
    for (const auto& w : morph::pta::spec2000_workloads()) {
      Scope s(spans, "pta.gen", parent);
      in.push_back(std::make_unique<PtaInput>(w.name, morph::pta::spec_like(w)));
    }
  }
  // MST: road, RMAT and grid graphs, drawn from --seed.
  struct GraphSpec {
    std::string name;
    std::uint32_t nodes;
  };
  const std::uint32_t scale = opt.tiny ? 64 : 1;
  auto add_graph = [&](const std::string& name, auto&& gen) {
    std::vector<morph::graph::Edge> edges;
    {
      Scope s(spans, "graph.gen", parent);
      edges = gen();
    }
    Scope s(spans, "graph.csr", parent);
    const auto n = morph::graph::max_node_plus_one(edges);
    in.push_back(std::make_unique<MstInput>(
        name, morph::graph::CsrGraph::from_undirected_edges(n, edges)));
  };
  add_graph("road", [&] {
    return morph::graph::gen_road_like(200000 / scale, 2.4, mix(opt.seed, 10));
  });
  add_graph("rmat", [&] {
    const std::uint32_t s = opt.tiny ? 10 : 16;
    return morph::graph::gen_rmat(s, static_cast<morph::graph::EdgeId>(8.3 * (1u << s)),
                                  mix(opt.seed, 11));
  });
  add_graph("grid", [&] {
    return morph::graph::gen_grid2d(opt.tiny ? 40 : 400, 1 << 16,
                                    mix(opt.seed, 12));
  });
  // SP: the fixed 90-sweep workload at K = 3..5 on the Fig. 9 instances.
  const std::uint32_t n = opt.tiny ? 200 : 2500;
  for (std::uint32_t k = 3; k <= (opt.tiny ? 3u : 5u); ++k) {
    Scope s(spans, "sp.gen", parent);
    const auto m = static_cast<std::uint32_t>(morph::sp::hard_ratio(k) * n);
    in.push_back(std::make_unique<SpInput>("K" + std::to_string(k), n, k,
                                           morph::sp::random_ksat(n, m, k, 17)));
  }
  return in;
}

/// One timed solver call.
struct CallSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double cycles = 0.0;
};

/// One pass over the inputs.
struct Pass {
  std::vector<CallSample> calls;    ///< per input
  std::vector<Counters> outcomes;   ///< per input, for the determinism check
  std::map<std::string, double> counters;
  DeviceStats dev;
  double cycles = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t trace_events = 0;
};

void add_stats(DeviceStats& a, const DeviceStats& b) {
  a.launches += b.launches;
  a.barriers += b.barriers;
  a.total_work += b.total_work;
  a.warp_steps += b.warp_steps;
  a.atomics += b.atomics;
  a.wl_contended_ops += b.wl_contended_ops;
  a.bytes_allocated += b.bytes_allocated;
  a.modeled_cycles += b.modeled_cycles;
}

class BatchRunner {
 public:
  BatchRunner(const Options& opt, Spans& spans, Inputs& inputs, Result& res)
      : opt_(opt), spans_(spans), inputs_(inputs), res_(res) {}

  /// One pass at `host_workers`; with `sink` set, the TraceSink is
  /// attached to every device of the pass.
  Pass pass(std::uint32_t host_workers, morph::telemetry::TraceSink* sink,
            std::vector<double>* device_new_ms) {
    Scope pass_span(spans_, "pass");
    Pass t;
    DeviceConfig cfg;
    cfg.host_workers = host_workers;
    cfg.trace = sink;
    for (auto& in : inputs_) {
      in->prepare();
      const auto d0 = Clock::now();
      Device dev(cfg);
      if (device_new_ms) device_new_ms->push_back(seconds_since(d0) * 1e3);
      Counters c;
      CallSample cs;
      {
        Scope call(spans_, in->layer() + ".solve", pass_span.id());
        const double cpu0 = process_cpu_seconds();
        const auto t0 = Clock::now();
        c = in->solve(dev);
        cs.wall_s = seconds_since(t0);
        cs.cpu_s = process_cpu_seconds() - cpu0;
      }
      cs.cycles = dev.stats().modeled_cycles;
      t.calls.push_back(cs);
      t.cycles += cs.cycles;
      t.wall_s += cs.wall_s;
      t.cpu_s += cs.cpu_s;
      for (const auto& [k, v] : c) t.counters[k] += v;
      add_stats(t.dev, dev.stats());
      c.emplace_back("modeled_cycles", cs.cycles);
      t.outcomes.push_back(std::move(c));
      ++res_.attempted;
    }
    if (sink) t.trace_events = sink->merged().size();
    return t;
  }

  /// Full answer checks of the pass just run (outside the timed region).
  void check_answers(std::map<std::string, double>* check_s) {
    for (auto& in : inputs_) {
      Scope s(spans_, in->layer() + ".check");
      const auto t0 = Clock::now();
      const std::string why = in->check(opt_);
      (*check_s)[in->layer()] += seconds_since(t0);
      if (!why.empty()) res_.wrong(in->layer() + "/" + in->name() + ": " + why);
    }
  }

  /// A later pass must reproduce the checked pass exactly.
  void check_same(const Pass& ref, const Pass& p) {
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      if (p.outcomes[i] != ref.outcomes[i]) {
        res_.wrong(inputs_[i]->layer() + "/" + inputs_[i]->name() +
                   ": outcome differs from the checked pass");
      }
    }
  }

 private:
  const Options& opt_;
  Spans& spans_;
  Inputs& inputs_;
  Result& res_;
};

/// Median pass time as the sum over inputs of each input's median call
/// time (wall, or CPU with `cpu`), restricted to one layer when given.
double median_pass(const std::vector<Pass>& passes, const Inputs& inputs,
                   bool cpu, const std::string& layer = "") {
  double sum = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!layer.empty() && inputs[i]->layer() != layer) continue;
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(cpu ? p.calls[i].cpu_s : p.calls[i].wall_s);
    sum += median(v);
  }
  return sum;
}

/// Runs a batch workload. The measured passes run single-threaded, so a
/// call's CPU time is the work the program does for it: on a shared host the
/// wall time of the same call swings with steal time and with whatever else
/// runs, and host workers add scheduling noise on top. The traced run adds
/// one pass at host_workers = nproc.
Result run_batch(const Options& opt, Spans& spans,
                 Inputs (*build)(const Options&, Spans&, int)) {
  Result res;

  // Set-up: build the inputs several times and report the median.
  const int setups = opt.tiny ? 1 : 5;
  std::vector<double> setup_times;
  Inputs inputs;
  for (int i = 0; i < setups; ++i) {
    inputs.clear();
    Scope s(spans, "setup");
    const auto t0 = Clock::now();
    inputs = build(opt, spans, s.id());
    setup_times.push_back(seconds_since(t0));
  }

  // Peak RSS counts from here: the inputs are live, the repeated set-ups'
  // allocation history is not.
  reset_peak_rss();
  BatchRunner runner(opt, spans, inputs, res);
  std::vector<Pass> plain, traced;
  std::vector<double> device_new_ms;
  std::map<std::string, double> check_s;

  // Measured phase: passes while the next one is expected to end within
  // --seconds, at least 3. The traced run alternates passes with and
  // without the TraceSink attached; only the passes without it give wall
  // metrics.
  const auto t_start = Clock::now();
  for (int p = 0;; ++p) {
    const bool with_sink = opt.trace && p % 2 == 1;
    std::optional<morph::telemetry::TraceSink> sink;
    if (with_sink) sink.emplace();
    Pass t = runner.pass(1, with_sink ? &*sink : nullptr, &device_new_ms);
    if (p == 0) {
      runner.check_answers(&check_s);
    } else {
      runner.check_same(plain.front(), t);
    }
    (with_sink ? traced : plain).push_back(std::move(t));
    const bool enough = plain.size() >= (opt.tiny ? 1u : 3u) && (!opt.trace || !traced.empty());
    const double elapsed = seconds_since(t_start);
    if (enough && elapsed + elapsed / (p + 1) > opt.seconds) break;
  }
  const Pass& first = plain.front();

  const double solve_wall = median_pass(plain, inputs, false);
  const double solve_cpu = median_pass(plain, inputs, true);
  const std::size_t calls = plain.size() * inputs.size();
  res.set("solve_cpu_s", solve_cpu, "s");
  res.set("model_ms", first.cycles * 1e-6, "ms");  // nominal 1 GHz clock
  res.set("setup_s", median(setup_times), "s");
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  std::cout << "passes " << plain.size() << " (+" << traced.size()
            << " traced), solver calls timed " << calls
            << ", set-ups " << setup_times.size() << "; median pass cpu_s " << solve_cpu
            << " wall_s " << solve_wall << "\n";
  for (std::size_t p = 0; p < plain.size(); ++p) {
    std::cout << "pass " << p << " cpu_s " << plain[p].cpu_s << " wall_s " << plain[p].wall_s
              << "\n";
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    std::vector<double> wall, cpu;
    for (const Pass& p : plain) {
      wall.push_back(p.calls[i].wall_s);
      cpu.push_back(p.calls[i].cpu_s);
    }
    std::cout << "input " << inputs[i]->layer() << "/" << inputs[i]->name()
              << " model_ms "
              << morph::telemetry::Json::number_to_string(first.calls[i].cycles * 1e-6)
              << " median_cpu_s " << median(cpu) << " median_wall_s " << median(wall) << "\n";
  }

  if (!opt.trace) return res;

  // --- per-layer metrics (traced run) ---
  const auto spans_total = spans.totals();
  auto setup_span = [&](const std::string& name) {
    const auto it = spans_total.find(name);
    return it == spans_total.end() ? 0.0 : it->second.total_s / setups;
  };
  auto counter = [&](const std::string& name) {
    const auto it = first.counters.find(name);
    return it == first.counters.end() ? 0.0 : it->second;
  };
  auto has_layer = [&](const std::string& layer) {
    for (const auto& in : inputs) {
      if (in->layer() == layer) return true;
    }
    return false;
  };
  if (has_layer("dmr")) {
    res.set("dmr.mesh_gen_s", setup_span("dmr.mesh_gen"), "s");
    res.set("dmr.refine_s", median_pass(plain, inputs, false, "dmr"), "s");
    res.set("dmr.refine_cpu_s", median_pass(plain, inputs, true, "dmr"), "s");
    res.set("dmr.rounds", counter("dmr.rounds"), "count");
    res.set("dmr.processed", counter("dmr.processed"), "count");
    res.set("dmr.aborted", counter("dmr.aborted"), "count");
    res.set("core.abort_ratio",
            safe_div(counter("dmr.aborted"),
                     counter("dmr.aborted") + counter("dmr.processed")),
            "ratio");
    res.set("dmr.check_s", check_s["dmr"], "s");
  }
  if (has_layer("pta")) {
    res.set("pta.solve_s", median_pass(plain, inputs, false, "pta"), "s");
    res.set("pta.solve_cpu_s", median_pass(plain, inputs, true, "pta"), "s");
    res.set("pta.iterations", counter("pta.iterations"), "count");
    res.set("pta.edges_added", counter("pta.edges_added"), "count");
    res.set("pta.pts_total", counter("pta.pts_total"), "count");
    res.set("pta.check_s", check_s["pta"], "s");
  }
  if (has_layer("mst")) {
    res.set("graph.gen_s", setup_span("graph.gen"), "s");
    res.set("graph.csr_s", setup_span("graph.csr"), "s");
    res.set("mst.solve_s", median_pass(plain, inputs, false, "mst"), "s");
    res.set("mst.rounds", counter("mst.rounds"), "count");
  }
  if (has_layer("sp")) {
    res.set("sp.solve_s", median_pass(plain, inputs, false, "sp"), "s");
    res.set("sp.solve_cpu_s", median_pass(plain, inputs, true, "sp"), "s");
    res.set("sp.sweeps", counter("sp.sweeps"), "count");
  }
  const DeviceStats& st = first.dev;
  res.set("gpu.launches", static_cast<double>(st.launches), "count");
  res.set("gpu.barriers", static_cast<double>(st.barriers), "count");
  res.set("gpu.warp_steps", static_cast<double>(st.warp_steps), "count");
  res.set("gpu.total_work", static_cast<double>(st.total_work), "count");
  res.set("gpu.atomics", static_cast<double>(st.atomics), "count");
  res.set("gpu.divergence", st.divergence(32), "ratio");
  res.set("gpu.wl_contended_ops", static_cast<double>(st.wl_contended_ops),
          "count");
  res.set("gpu.bytes_allocated", static_cast<double>(st.bytes_allocated),
          "bytes");
  res.set("gpu.us_per_launch",
          safe_div(solve_wall, static_cast<double>(st.launches)) * 1e6, "us");
  res.set("gpu.device_new_ms", median(device_new_ms), "ms");

  // Host speedup: one more pass at nproc host workers. Modeled results must
  // not depend on the worker count.
  const Pass wide = runner.pass(opt.nproc, nullptr, nullptr);
  runner.check_same(first, wide);
  if (wide.cycles != first.cycles) {
    res.wrong("model_ms differs between host_workers=1 and " + std::to_string(opt.nproc));
  }
  res.set("gpu.host_speedup", safe_div(solve_wall, wide.wall_s), "ratio");
  // Pool utilisation of the nproc pass: solve CPU / (wall x workers).
  res.set("gpu.pool_util", safe_div(wide.cpu_s, wide.wall_s * opt.nproc), "ratio");

  const double traced_wall = median_pass(traced, inputs, false);
  res.set("telemetry.trace_events",
          static_cast<double>(traced.front().trace_events), "count");
  res.set("telemetry.trace_overhead_frac",
          safe_div(traced_wall - solve_wall, solve_wall), "ratio");
  return res;
}

}  // namespace

Result run_dmr_refine(const Options& opt, Spans& spans) {
  return run_batch(opt, spans, build_dmr_inputs);
}

Result run_graph_solve(const Options& opt, Spans& spans) {
  return run_batch(opt, spans, build_graph_inputs);
}

}  // namespace perfbench
