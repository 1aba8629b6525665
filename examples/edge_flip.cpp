// Delaunay edge flipping (library extension): scrambles a Delaunay mesh
// with random legal flips, then restores the Delaunay property with
// Lawson's algorithm — serially and on the simulated GPU, where flips use
// the same 3-phase conflict-resolution protocol as mesh refinement.
//
//   ./build/examples/edge_flip --triangles=20000 --scrambles=8000
#include <iostream>

#include "dmr/delaunay.hpp"
#include "dmr/flip.hpp"
#include "dmr/quality.hpp"
#include "example_common.hpp"
#include "support/cli.hpp"

int run(int argc, char** argv) {
  using namespace morph;
  examples::ExampleCli cli(argc, argv, {"triangles", "scrambles"});
  CliArgs& args = cli.args();
  const std::size_t n =
      static_cast<std::size_t>(args.get_int("triangles", 20000));
  const std::size_t scrambles =
      static_cast<std::size_t>(args.get_int("scrambles", n / 3));

  dmr::Mesh base = dmr::generate_input_mesh(n, 5);
  const std::size_t done = dmr::random_legal_flips(base, scrambles, 7);
  std::cout << "scrambled " << done << " edges; Delaunay now: "
            << (dmr::is_delaunay(base) ? "yes" : "no")
            << ", mean min angle "
            << dmr::measure_quality(base).mean_min_angle_deg << " deg\n";

  {
    dmr::Mesh m = base;
    const dmr::FlipStats st = dmr::flip_serial(m);
    std::cout << "serial: " << st.flips << " flips, "
              << (dmr::is_delaunay(m) ? "Delaunay restored" : "FAILED")
              << ", mean min angle "
              << dmr::measure_quality(m).mean_min_angle_deg << " deg\n";
  }
  {
    dmr::Mesh m = base;
    gpu::Device dev(gpu::DeviceConfig{.host_workers = host_workers_arg(args),
                                      .faults = cli.faults()});
    const dmr::FlipStats st = dmr::flip_gpu(m, dev);
    std::cout << "GPU:    " << st.flips << " flips in " << st.rounds
              << " rounds (" << st.aborted << " aborted), "
              << (dmr::is_delaunay(m) ? "Delaunay restored" : "FAILED")
              << ", " << dev.stats().barriers << " global barriers\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return morph::resilience::guarded_main([&] { return run(argc, argv); });
}
