// Ablation (Sec. 6.4): push- vs pull-based propagation in PTA.
//
// The pull model lets exactly one thread write each points-to set, so
// propagation needs no synchronization; the push model pays an atomic per
// target update. Both reach the same fixed point.
#include "bench_common.hpp"
#include "pta/solve.hpp"

int run_bench(int argc, char** argv) {
  using namespace morph;
  bench::Bench bench(argc, argv,
                     "Ablation — push vs pull propagation in PTA (Sec. 6.4)",
                     "pull avoids the synchronization the push model pays");

  Table t({"workload", "mode", "model-ms", "atomics x1e3", "iterations",
           "fixed point"});
  for (const auto& w : pta::spec2000_workloads()) {
    const pta::ConstraintSet cs = pta::spec_like(w);
    const pta::PtsSets ser = pta::solve_serial(cs);
    for (bool push : {false, true}) {
      gpu::Device dev(bench.device_config());
      pta::PtaOptions opts;
      opts.push_based = push;
      pta::PtaStats st;
      const pta::PtsSets got = pta::solve_gpu(cs, dev, opts, &st);
      const bool agree = pta::equal_pts(ser, got);
      t.add_row({w.name, push ? "push" : "pull",
                 bench.fmt_ms(bench.model_ms(st.modeled_cycles)),
                 Table::num(dev.stats().atomics / 1e3, 1),
                 std::to_string(st.iterations),
                 agree ? "agree" : "MISMATCH"});

      auto& rep =
          bench.add_row(std::string(w.name) + "/" + (push ? "push" : "pull"));
      bench.add_device_metrics(rep, dev);
      rep.metric("iterations", static_cast<double>(st.iterations))
          .metric("fixed_point_agrees", agree ? 1.0 : 0.0);
    }
  }
  t.print(std::cout);
  return bench.finish();
}

int main(int argc, char** argv) {
  return morph::resilience::guarded_main([&] { return run_bench(argc, argv); });
}
