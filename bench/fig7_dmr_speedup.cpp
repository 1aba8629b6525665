// Figure 7 (table): DMR speedup of Galois-48 and the GPU over the
// sequential Triangle program.
//
// Paper values: Galois-48 = 26.5x..28.6x, GPU = 54.6x..80.5x over serial,
// on meshes of 0.5M..10M triangles (~half bad). Speedups here are ratios of
// modeled times on the same (scaled) inputs.
#include "bench_common.hpp"
#include "dmr/delaunay.hpp"
#include "dmr/refine.hpp"

int run_bench(int argc, char** argv) {
  using namespace morph;
  bench::Bench bench(argc, argv, "Fig. 7 — DMR speedups over sequential",
                     "paper: Galois-48 26.5-28.6x, GPU 54.6-80.5x",
                     {"scale"});
  const auto scale =
      static_cast<std::size_t>(bench.args().get_positive_int("scale", 10));
  const std::size_t paper_sizes[] = {500000, 1000000, 2000000, 10000000};

  Table t({"total x1e6 (paper)", "bad x1e6", "speedup Galois-48",
           "speedup GPU"});
  for (std::size_t paper_n : paper_sizes) {
    const std::size_t n = paper_n / scale;
    dmr::Mesh base = dmr::generate_input_mesh(n, 7);
    dmr::Mesh tmp = base;
    const std::size_t bad = tmp.compute_all_bad(30.0);

    dmr::Mesh ms = base;
    cpu::ParallelRunner seq({.workers = 1});
    dmr::refine_multicore(ms, seq);
    const double serial = seq.stats().modeled_cycles;

    dmr::Mesh mm = base;
    cpu::ParallelRunner g48({.workers = 48});
    dmr::refine_multicore(mm, g48);
    const double galois = g48.stats().modeled_cycles;

    dmr::Mesh mg = base;
    gpu::Device dev(bench.device_config());
    dmr::refine_gpu(mg, dev);
    const double gpu = dev.stats().modeled_cycles;

    t.add_row({Table::num(paper_n / 1e6, 1), Table::num(bad * scale / 1e6, 2),
               Table::num(serial / galois, 1), Table::num(serial / gpu, 1)});

    auto& rep = bench.add_row(Table::num(paper_n / 1e6, 1) + "M");
    bench.add_device_metrics(rep, dev);
    rep.metric("bad", static_cast<double>(bad))
        .metric("serial_modeled_cycles", serial)
        .metric("galois48_modeled_cycles", galois)
        .metric("speedup_galois48", serial / galois)
        .metric("speedup_gpu", serial / gpu);
  }
  t.print(std::cout);
  return bench.finish();
}

int main(int argc, char** argv) {
  return morph::resilience::guarded_main([&] { return run_bench(argc, argv); });
}
