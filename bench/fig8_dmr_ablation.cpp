// Figure 8 (table): effect of cumulative optimizations on DMR.
//
// Paper rows (10M-triangle mesh):
//   1 Topology-driven with mesh-partitioning  68,000 ms
//   2 3-phase marking                         10,000 ms
//   3 + atomic-free global barrier             6,360 ms
//   4 + optimized memory layout                5,380 ms
//   5 + adaptive parallelism                   2,200 ms
//   6 + reduced thread-divergence              2,020 ms
//   7 + single-precision arithmetic            1,020 ms
//   8 + on-demand memory allocation            1,140 ms (slightly slower,
//                                              but memory-safe)
// We run the same cumulative ladder on a scaled mesh and report modeled ms
// plus the per-variant conflict statistics.
#include "bench_common.hpp"
#include "dmr/delaunay.hpp"
#include "dmr/refine.hpp"

int run_bench(int argc, char** argv) {
  using namespace morph;
  bench::Bench bench(argc, argv, "Fig. 8 — DMR optimization ladder",
                     "each row adds one optimization; row 8 trades a little "
                     "time for on-demand allocation",
                     {"triangles", "scale"});
  const std::size_t n =
      static_cast<std::size_t>(bench.args().get_positive_int("triangles",
                                                             10000000)) /
      static_cast<std::size_t>(bench.args().get_positive_int("scale", 50));

  struct Row {
    const char* label;
    dmr::RefineOptions opts;
  };
  dmr::RefineOptions o;
  // Row 1: per-element locks, naive barrier, no layout/adaptive/sort/float,
  // prealloc.
  o.scheme = core::ConflictScheme::kLocks;
  o.barrier = gpu::BarrierKind::kNaiveAtomic;
  o.layout_opt = false;
  o.adaptive = false;
  o.divergence_sort = false;
  o.use_float = false;
  o.prealloc = true;
  std::vector<Row> rows;
  rows.push_back({"1 topology-driven + locks", o});
  o.scheme = core::ConflictScheme::kThreePhase;
  rows.push_back({"2 3-phase marking", o});
  o.barrier = gpu::BarrierKind::kLockFree;
  rows.push_back({"3 + atomic-free global barrier", o});
  o.layout_opt = true;
  rows.push_back({"4 + optimized memory layout", o});
  o.adaptive = true;
  rows.push_back({"5 + adaptive parallelism", o});
  o.divergence_sort = true;
  rows.push_back({"6 + reduced thread-divergence", o});
  o.use_float = true;
  rows.push_back({"7 + single-precision arithmetic", o});
  o.prealloc = false;
  rows.push_back({"8 + on-demand memory allocation", o});

  dmr::Mesh base = dmr::generate_input_mesh(n, 7);
  Table t({"variant", "model-ms", "wall-s", "rounds", "abort-ratio",
           "device MB allocated"});
  for (const Row& r : rows) {
    dmr::Mesh m = base;
    gpu::Device dev(bench.device_config());
    const dmr::RefineStats st = dmr::refine_gpu(m, dev, r.opts);
    MORPH_CHECK(m.compute_all_bad(30.0) == 0);
    t.add_row({r.label, bench.fmt_ms(bench.model_ms(st.modeled_cycles)),
               Table::num(st.wall_seconds, 2), std::to_string(st.rounds),
               Table::num(st.abort_ratio(), 2),
               Table::num(dev.stats().bytes_allocated / 1.0e6, 1)});

    auto& rep = bench.add_row(r.label);
    bench.add_device_metrics(rep, dev);
    rep.metric("wall_seconds", st.wall_seconds)
        .metric("rounds", static_cast<double>(st.rounds))
        .metric("abort_ratio", st.abort_ratio());
  }
  t.print(std::cout);
  return bench.finish();
}

int main(int argc, char** argv) {
  return morph::resilience::guarded_main([&] { return run_bench(argc, argv); });
}
