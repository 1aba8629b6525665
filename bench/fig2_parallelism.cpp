// Figure 2: parallelism profile of Delaunay Mesh Refinement.
//
// The paper ran ParaMeter on a 100K-triangle mesh with half the triangles
// bad and reported the number of bad triangles that can be processed in
// parallel at each computation step: ~5,000 initially, peaking above 7,000,
// then decaying. We measure the same quantity — a greedy maximal set of
// non-overlapping cavities per round — on a (scaled) random input mesh.
#include <vector>

#include "bench_common.hpp"
#include "dmr/cavity.hpp"
#include "dmr/delaunay.hpp"

int run_bench(int argc, char** argv) {
  using namespace morph;
  bench::Bench bench(argc, argv, "Fig. 2 — DMR parallelism profile",
                     "available parallelism rises to a peak, then decays",
                     {"triangles", "scale"});
  const std::size_t triangles =
      static_cast<std::size_t>(bench.args().get_positive_int("triangles",
                                                             100000)) /
      static_cast<std::size_t>(bench.args().get_positive_int("scale", 4));

  dmr::Mesh m = dmr::generate_input_mesh(triangles, 42);
  m.compute_all_bad(30.0);
  const double cb = dmr::cos_of_deg(30.0);

  Table t({"step", "available parallelism (independent cavities)"});
  std::size_t peak = 0, first = 0;
  dmr::Cavity c;
  std::vector<dmr::Tri> hood, created;
  for (int round = 0;; ++round) {
    std::vector<dmr::Tri> bad;
    for (dmr::Tri x = 0; x < m.num_slots(); ++x) {
      if (!m.is_deleted(x) && m.is_bad(x)) bad.push_back(x);
    }
    if (bad.empty()) break;
    std::vector<std::uint8_t> taken(m.num_slots() * 16, 0);
    std::size_t applied = 0;
    for (dmr::Tri x : bad) {
      if (m.is_deleted(x) || !m.is_bad(x)) continue;
      dmr::build_refinement_cavity(m, x, /*use_float=*/false, c);
      c.neighborhood(hood);
      bool free = true;
      for (dmr::Tri h : hood) {
        if (h < taken.size() && taken[h]) free = false;
      }
      if (!free) continue;
      for (dmr::Tri h : hood) {
        if (h < taken.size()) taken[h] = 1;
      }
      created.clear();
      dmr::retriangulate(m, c, cb, created);
      ++applied;
    }
    if (round == 0) first = applied;
    peak = std::max(peak, applied);
    t.add_row({std::to_string(round), std::to_string(applied)});
    bench.add_row("step " + std::to_string(round))
        .metric("parallelism", static_cast<double>(applied));
  }
  t.print(std::cout);
  std::cout << "\ninitial=" << first << " peak=" << peak
            << "  (paper: ~5,000 initial, >7,000 peak on 100K triangles; "
               "shape: rise then decay)\n";
  bench.add_row("summary")
      .metric("initial", static_cast<double>(first))
      .metric("peak", static_cast<double>(peak));
  return bench.finish();
}

int main(int argc, char** argv) {
  return morph::resilience::guarded_main([&] { return run_bench(argc, argv); });
}
