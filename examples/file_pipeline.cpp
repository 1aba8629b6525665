// File-based pipeline: exercises every interchange format end to end.
//
//   1. generates a mesh, writes it as Triangle .node/.ele, reads it back,
//      refines it on the simulated GPU, and reports the quality change;
//   2. generates a hard 3-SAT formula, round-trips it through DIMACS CNF,
//      and solves it;
//   3. generates a road-like graph, round-trips it through DIMACS .gr, and
//      verifies the MST.
//
// Files are written under --dir (default: the current directory).
#include <filesystem>
#include <fstream>
#include <iostream>

#include "dmr/delaunay.hpp"
#include "dmr/mesh_io.hpp"
#include "dmr/quality.hpp"
#include "dmr/refine.hpp"
#include "example_common.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "mst/mst.hpp"
#include "sp/cnf.hpp"
#include "sp/survey.hpp"
#include "support/cli.hpp"

int run(int argc, char** argv) {
  using namespace morph;
  examples::ExampleCli cli(argc, argv, {"dir"});
  CliArgs& args = cli.args();
  const std::filesystem::path dir = args.get("dir", ".");

  // --- mesh through .node/.ele ---
  {
    dmr::Mesh m = dmr::generate_input_mesh(8000, 1);
    {
      std::ofstream node(dir / "pipeline.node"), ele(dir / "pipeline.ele");
      dmr::write_triangle_format(m, node, ele);
    }
    std::ifstream node(dir / "pipeline.node"), ele(dir / "pipeline.ele");
    dmr::Mesh back = dmr::read_triangle_format(node, ele);
    const double before = dmr::measure_quality(back).min_angle_deg;
    gpu::Device dev(gpu::DeviceConfig{.host_workers = host_workers_arg(args),
                                      .faults = cli.faults()});
    dmr::refine_gpu(back, dev);
    std::cout << "mesh:  " << m.num_live() << " triangles round-tripped; "
              << "min angle " << before << " -> "
              << dmr::measure_quality(back).min_angle_deg
              << " deg after GPU refinement\n";
  }

  // --- formula through DIMACS CNF ---
  {
    auto f = sp::random_ksat(1500, 5850, 3, 2);  // ratio 3.9
    {
      std::ofstream cnf(dir / "pipeline.cnf");
      sp::write_dimacs_cnf(f, cnf);
    }
    std::ifstream cnf(dir / "pipeline.cnf");
    const sp::Formula back = sp::read_dimacs_cnf(cnf);
    const sp::SpResult r = sp::solve_serial(back, {.seed = 3});
    std::cout << "cnf:   " << back.num_clauses()
              << " clauses round-tripped; solver says "
              << (r.solved ? "SATISFIABLE (verified)" : "gave up") << '\n';
  }

  // --- graph through DIMACS .gr ---
  {
    auto edges = graph::gen_road_like(5000, 2.4, 4);
    {
      std::ofstream gr(dir / "pipeline.gr");
      graph::write_dimacs(gr, 5000, edges);
    }
    std::ifstream gr(dir / "pipeline.gr");
    graph::Node n = 0;
    auto back = graph::read_dimacs(gr, n);
    auto g = graph::CsrGraph::from_undirected_edges(n, back);
    gpu::Device dev(gpu::DeviceConfig{.host_workers = host_workers_arg(args),
                                      .faults = cli.faults()});
    const mst::MstResult r = mst::mst_gpu(g, dev);
    std::cout << "graph: " << n << " nodes round-tripped; MST weight "
              << r.total_weight << ", "
              << (mst::verify_forest(g, r) ? "forest verified"
                                           : "VERIFICATION FAILED")
              << '\n';
  }
  return 0;
}

int main(int argc, char** argv) {
  return morph::resilience::guarded_main([&] { return run(argc, argv); });
}
