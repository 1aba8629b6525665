// Figure 10 (table): points-to analysis on six SPEC 2000 inputs.
//
// Paper columns: benchmark, vars, constraints, serial ms, Galois-48 ms, GPU
// ms; the GPU is 1.9x..34.7x faster than Galois-48 with a geometric-mean
// speedup of 9.3x, analyzing all six programs in 74 ms total. Constraint
// sets here are synthetic with the paper's published sizes (see DESIGN.md).
#include <vector>

#include "bench_common.hpp"
#include "pta/solve.hpp"
#include "support/stats.hpp"

int run_bench(int argc, char** argv) {
  using namespace morph;
  bench::Bench bench(argc, argv,
                     "Fig. 10 — Points-to Analysis on SPEC 2000 sizes",
                     "GPU beats Galois-48 on every row; paper geomean 9.3x");

  Table t({"benchmark", "vars", "cons", "serial model-ms",
           "Galois-48 model-ms", "GPU model-ms", "speedup vs 48",
           "fixed point"});
  std::vector<double> speedups;
  double gpu_total_ms = 0.0;
  for (const auto& w : pta::spec2000_workloads()) {
    const pta::ConstraintSet cs = pta::spec_like(w);

    pta::PtaStats st_ser, st_mc, st_gpu;
    const pta::PtsSets ser = pta::solve_serial(cs, &st_ser);
    cpu::ParallelRunner runner({.workers = 48});
    const pta::PtsSets mc = pta::solve_multicore(cs, runner, &st_mc);
    gpu::Device dev(bench.device_config());
    const pta::PtsSets gp = pta::solve_gpu(cs, dev, {}, &st_gpu);

    const bool agree = pta::equal_pts(ser, gp) && pta::equal_pts(ser, mc);
    const double speedup = st_mc.modeled_cycles / st_gpu.modeled_cycles;
    speedups.push_back(speedup);
    gpu_total_ms += bench.model_ms(st_gpu.modeled_cycles);
    t.add_row({w.name, std::to_string(w.vars), std::to_string(w.cons),
               bench.fmt_ms(bench.model_ms(st_ser.modeled_cycles)),
               bench.fmt_ms(bench.model_ms(st_mc.modeled_cycles)),
               bench.fmt_ms(bench.model_ms(st_gpu.modeled_cycles)),
               Table::num(speedup, 1), agree ? "agree" : "MISMATCH"});

    auto& rep = bench.add_row(w.name);
    bench.add_device_metrics(rep, dev);
    rep.metric("vars", static_cast<double>(w.vars))
        .metric("cons", static_cast<double>(w.cons))
        .metric("serial_modeled_cycles", st_ser.modeled_cycles)
        .metric("galois48_modeled_cycles", st_mc.modeled_cycles)
        .metric("speedup_vs_48", speedup)
        .metric("fixed_point_agrees", agree ? 1.0 : 0.0);
  }
  t.print(std::cout);
  std::cout << "\ngeomean speedup GPU vs Galois-48: "
            << Table::num(geomean(speedups), 1)
            << "x (paper: 9.3x)  |  GPU total: "
            << Table::num(gpu_total_ms, 1) << " model-ms (paper: 74 ms)\n";
  bench.add_row("summary")
      .metric("speedup_geomean", geomean(speedups))
      .metric("gpu_total_model_ms", gpu_total_ms);
  return bench.finish();
}

int main(int argc, char** argv) {
  return morph::resilience::guarded_main([&] { return run_bench(argc, argv); });
}
