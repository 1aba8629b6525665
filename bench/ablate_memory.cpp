// Ablation (Sec. 7.1 / 7.2): subgraph addition and deletion strategies.
//
// (a) PTA: Kernel-Only chunk size sweep (the paper reports the best size is
//     input dependent, between 512 and 4096) — chunk count vs fragmentation.
// (b) DMR: Recycle vs Mark deletion, and Pre-allocation vs Host-Only
//     on-demand growth — storage footprint vs modeled time.
#include "bench_common.hpp"
#include "dmr/delaunay.hpp"
#include "dmr/refine.hpp"
#include "pta/solve.hpp"

int run_bench(int argc, char** argv) {
  using namespace morph;
  bench::Bench bench(argc, argv,
                     "Ablation — PTA Kernel-Only chunk size (Sec. 7.1)",
                     "small chunks: many device mallocs; large: fragmentation",
                     {"vars", "cons", "triangles"});
  {
    const pta::ConstraintSet cs = pta::synthetic_program(
        static_cast<std::uint32_t>(bench.args().get_positive_int("vars",
                                                                 4000)),
        static_cast<std::uint32_t>(bench.args().get_positive_int("cons",
                                                                 5000)),
        31);
    Table t({"chunk elems", "device mallocs", "bytes allocated x1e6",
             "model-ms", "edges added"});
    for (std::uint32_t chunk : {128u, 512u, 1024u, 2048u, 4096u}) {
      gpu::Device dev(bench.device_config());
      pta::PtaOptions opts;
      opts.chunk_elems = chunk;
      pta::PtaStats st;
      pta::solve_gpu(cs, dev, opts, &st);
      t.add_row({std::to_string(chunk), std::to_string(st.device_mallocs),
                 Table::num(dev.stats().bytes_allocated / 1e6, 2),
                 bench.fmt_ms(bench.model_ms(st.modeled_cycles)),
                 std::to_string(st.edges_added)});

      auto& rep = bench.add_row("chunk/" + std::to_string(chunk));
      bench.add_device_metrics(rep, dev);
      rep.metric("edges_added", static_cast<double>(st.edges_added));
    }
    t.print(std::cout);
  }

  bench.section("Ablation — DMR deletion & allocation strategies (Sec. 7.2)",
                "recycling trades compaction for slot reuse; prealloc "
                "avoids reallocs at a memory cost");
  {
    const std::size_t n = static_cast<std::size_t>(
        bench.args().get_positive_int("triangles", 50000));
    dmr::Mesh base = dmr::generate_input_mesh(n, 33);
    Table t({"variant", "model-ms", "final slots", "live tris",
             "reallocs", "bytes alloc x1e6"});
    struct V {
      const char* name;
      bool recycle;
      bool prealloc;
    };
    const V variants[] = {
        {"mark only, on-demand", false, false},
        {"recycle, on-demand", true, false},
        {"mark only, prealloc", false, true},
        {"recycle, prealloc", true, true},
    };
    for (const V& v : variants) {
      dmr::Mesh m = base;
      gpu::Device dev(bench.device_config());
      dmr::RefineOptions opts;
      opts.recycle = v.recycle;
      opts.prealloc = v.prealloc;
      const dmr::RefineStats st = dmr::refine_gpu(m, dev, opts);
      t.add_row({v.name, bench.fmt_ms(bench.model_ms(st.modeled_cycles)),
                 std::to_string(m.num_slots()), std::to_string(m.num_live()),
                 std::to_string(dev.stats().reallocs),
                 Table::num(dev.stats().bytes_allocated / 1e6, 1)});

      auto& rep = bench.add_row(std::string("dmr/") + v.name);
      bench.add_device_metrics(rep, dev);
      rep.metric("final_slots", static_cast<double>(m.num_slots()))
          .metric("live_tris", static_cast<double>(m.num_live()));
    }
    t.print(std::cout);
    std::cout << "\n(recycling keeps the slot array near the live count; "
                 "mark-only leaves tombstones)\n";
  }
  return bench.finish();
}

int main(int argc, char** argv) {
  return morph::resilience::guarded_main([&] { return run_bench(argc, argv); });
}
