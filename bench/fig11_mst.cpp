// Figure 11 (table): Boruvka MST performance.
//
// Paper rows: USA and W road networks (sparse), RMAT20 and Random4-20
// (dense), grid-2d-24 and grid-2d-20. Galois 2.1.4 (explicit edge merging)
// beats the GPU on the sparse inputs but collapses on RMAT/random (1,393 s
// vs the GPU's 26.8 s); the rewritten 2.1.5 (component/union-find) is the
// fastest everywhere. Sizes here are scaled; densities match the paper's.
#include <cmath>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "mst/mst.hpp"

int run_bench(int argc, char** argv) {
  using namespace morph;
  using graph::CsrGraph;
  bench::Bench bench(argc, argv, "Fig. 11 — Boruvka MST",
                     "GPU slower than Galois 2.1.4 on sparse road/grid, far "
                     "faster on dense RMAT/random; 2.1.5 fastest",
                     {"scale"});
  const auto scale =
      static_cast<std::uint32_t>(bench.args().get_positive_int("scale", 64));

  struct Spec {
    std::string name;
    std::vector<graph::Edge> edges;
    graph::Node n;
  };
  std::vector<Spec> specs;
  {
    // USA road: 23.9M nodes / 57.7M edges, avg degree 2.4.
    const graph::Node n = 23900000u / scale;
    specs.push_back({"USA (road)", graph::gen_road_like(n, 2.4, 1), n});
  }
  {
    // W road: 6.3M nodes / 15.1M edges.
    const graph::Node n = 6300000u / scale;
    specs.push_back({"W (road)", graph::gen_road_like(n, 2.4, 2), n});
  }
  {
    // RMAT20: 2^20 nodes, 8.3M edges (avg degree ~8.3, heavy skew).
    std::uint32_t s = 20;
    std::uint32_t div = scale;
    while (div > 1) {
      --s;
      div /= 2;
    }
    const graph::Node n = graph::Node{1} << s;
    specs.push_back(
        {"RMAT20", graph::gen_rmat(s, static_cast<graph::EdgeId>(8.3 * n), 3),
         n});
  }
  {
    // Random4-20: 2^20 nodes, 4 edges per node.
    const graph::Node n = 1048576u / scale;
    specs.push_back({"Random4-20",
                     graph::gen_random_uniform(n, 4ull * n, 1 << 20, 4), n});
  }
  {
    // grid-2d-24: 16.8M nodes; grid-2d-20: 1M nodes.
    const auto side24 =
        static_cast<std::uint32_t>(std::sqrt(16800000.0 / scale));
    specs.push_back({"grid-2d-24", graph::gen_grid2d(side24, 1 << 16, 5),
                     side24 * side24});
    const auto side20 =
        static_cast<std::uint32_t>(std::sqrt(1000000.0 / scale));
    specs.push_back({"grid-2d-20", graph::gen_grid2d(side20, 1 << 16, 6),
                     side20 * side20});
  }

  Table t({"graph", "N x1e6 (paper)", "M x1e6 (paper)", "Galois 2.1.4",
           "Galois 2.1.5", "GPU model-ms", "weights agree"});
  for (const Spec& s : specs) {
    auto g = CsrGraph::from_undirected_edges(s.n, s.edges);

    const mst::MstResult kr = mst::mst_kruskal(g);
    gpu::Device dev(bench.device_config());
    const mst::MstResult gp = mst::mst_gpu(g, dev);
    cpu::ParallelRunner r1({.workers = 48}), r2({.workers = 48});
    const mst::MstResult em = mst::mst_edge_merge(g, r1);
    const mst::MstResult uf = mst::mst_union_find(g, r2);

    const bool agree = gp.total_weight == kr.total_weight &&
                       em.total_weight == kr.total_weight &&
                       uf.total_weight == kr.total_weight;
    t.add_row({s.name, Table::num(s.n * scale / 1e6, 1),
               Table::num(g.num_edges() / 2.0 * scale / 1e6, 1),
               bench.fmt_ms(bench.model_ms(em.modeled_cycles)),
               bench.fmt_ms(bench.model_ms(uf.modeled_cycles)),
               bench.fmt_ms(bench.model_ms(gp.modeled_cycles)),
               agree ? "yes" : "NO"});

    auto& rep = bench.add_row(s.name);
    bench.add_device_metrics(rep, dev);
    rep.metric("nodes", static_cast<double>(s.n))
        .metric("edges", g.num_edges() / 2.0)
        .metric("galois214_model_ms", bench.model_ms(em.modeled_cycles))
        .metric("galois215_model_ms", bench.model_ms(uf.modeled_cycles))
        .metric("weights_agree", agree ? 1.0 : 0.0);
  }
  t.print(std::cout);
  return bench.finish();
}

int main(int argc, char** argv) {
  return morph::resilience::guarded_main([&] { return run_bench(argc, argv); });
}
