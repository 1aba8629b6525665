// Figure 6: DMR runtime of the GPU, sequential CPU (Triangle), and
// multicore CPU (Galois) codes for different inputs.
//
// The paper plots, per input mesh size (0.5M/1M/2M/10M triangles, ~half
// bad), the Galois runtime against thread count (1..48) with two horizontal
// lines: the sequential Triangle time and the GPU time; the GPU beats
// Galois-48 everywhere. Sizes here are the paper's divided by --scale
// (default 10). Cross-platform numbers are modeled milliseconds; wall-clock
// of the real refinement is shown for reference.
#include "bench_common.hpp"
#include "dmr/delaunay.hpp"
#include "dmr/refine.hpp"

int run_bench(int argc, char** argv) {
  using namespace morph;
  bench::Bench bench(argc, argv,
                     "Fig. 6 — DMR runtime: GPU vs Triangle vs Galois",
                     "GPU line sits below Galois at every thread count",
                     {"scale"});
  const auto scale =
      static_cast<std::size_t>(bench.args().get_positive_int("scale", 10));
  const std::size_t paper_sizes[] = {500000, 1000000, 2000000, 10000000};
  const std::uint32_t thread_counts[] = {1, 4, 16, 48};

  Table t({"input (paper)", "triangles", "bad", "serial model-ms",
           "galois-1", "galois-4", "galois-16", "galois-48", "GPU model-ms",
           "GPU wall-s"});
  for (std::size_t paper_n : paper_sizes) {
    const std::size_t n = paper_n / scale;
    dmr::Mesh base = dmr::generate_input_mesh(n, 7);

    // Sequential Triangle stand-in: modeled time = total work at 1 worker.
    dmr::Mesh ms = base;
    cpu::ParallelRunner seq({.workers = 1});
    dmr::refine_multicore(ms, seq);
    const double serial_ms = bench.model_ms(seq.stats().modeled_cycles);

    std::vector<std::string> row = {
        std::to_string(paper_n / 1000000.0).substr(0, 4) + "M/" +
            std::to_string(scale),
        std::to_string(base.num_live()), "", ""};
    dmr::Mesh tmp = base;
    const std::size_t bad = tmp.compute_all_bad(30.0);
    row[2] = std::to_string(bad);
    row[3] = bench.fmt_ms(serial_ms);

    auto& rep = bench.add_row(row[0]);
    rep.metric("triangles", static_cast<double>(base.num_live()))
        .metric("bad", static_cast<double>(bad))
        .metric("serial_model_ms", serial_ms);

    for (std::uint32_t workers : thread_counts) {
      dmr::Mesh m = base;
      cpu::ParallelRunner runner({.workers = workers});
      dmr::refine_multicore(m, runner);
      const double ms_galois = bench.model_ms(runner.stats().modeled_cycles);
      row.push_back(bench.fmt_ms(ms_galois));
      rep.metric("galois" + std::to_string(workers) + "_model_ms", ms_galois);
    }

    dmr::Mesh mg = base;
    gpu::Device dev(bench.device_config());
    const dmr::RefineStats gs = dmr::refine_gpu(mg, dev);
    row.push_back(bench.fmt_ms(bench.model_ms(gs.modeled_cycles)));
    row.push_back(Table::num(gs.wall_seconds, 2));
    t.add_row(row);
    bench.add_device_metrics(rep, dev);
    rep.metric("wall_seconds", gs.wall_seconds);
  }
  t.print(std::cout);
  std::cout << "\n(paper: GPU 2-4x faster than Galois-48 on all sizes)\n";
  return bench.finish();
}

int main(int argc, char** argv) {
  return morph::resilience::guarded_main([&] { return run_bench(argc, argv); });
}
