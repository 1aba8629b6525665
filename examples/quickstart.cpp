// Quickstart: the smallest end-to-end use of the library.
//
// Creates a simulated GPU device, generates a small triangulated mesh,
// refines it with the paper's 3-phase GPU algorithm, and prints what the
// device did. Build and run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "dmr/delaunay.hpp"
#include "dmr/refine.hpp"
#include "example_common.hpp"

int run(int argc, char** argv) {
  using namespace morph;
  examples::ExampleCli cli(argc, argv, {});

  // 1. A simulated Fermi-class device (14 SMs, 32-wide warps). Simulated
  //    blocks execute on one host worker per hardware thread (0 = auto);
  //    modeled statistics are identical for any worker count. --faults=<spec>
  //    arms a deterministic fault-injection campaign (docs/RESILIENCE.md).
  gpu::Device device(
      gpu::DeviceConfig{.host_workers = 0, .faults = cli.faults()});

  // 2. A random input mesh: ~20k triangles, roughly half of them "bad"
  //    (some angle below 30 degrees), like the paper's DMR inputs.
  dmr::Mesh mesh = dmr::generate_input_mesh(20000, /*seed=*/1);
  std::cout << "input:   " << mesh.num_live() << " triangles, "
            << mesh.compute_all_bad(30.0) << " bad\n";

  // 3. Refine on the device. Options default to the paper's full
  //    configuration: 3-phase conflict resolution, hierarchical barriers,
  //    memory-layout scan, adaptive kernel configuration, divergence
  //    sorting, slot recycling.
  const dmr::RefineStats stats = dmr::refine_gpu(mesh, device);

  std::cout << "refined: " << mesh.num_live() << " triangles, "
            << mesh.compute_all_bad(30.0) << " bad\n"
            << "rounds:  " << stats.rounds << ", cavities applied "
            << stats.processed << ", aborted " << stats.aborted
            << " (abort ratio " << stats.abort_ratio() << ")\n"
            << "device:  " << device.stats().launches << " kernel launches, "
            << device.stats().barriers << " global barriers, "
            << device.stats().modeled_cycles << " modeled cycles\n";

  std::string why;
  if (!mesh.validate(&why)) {
    std::cerr << "mesh invalid: " << why << '\n';
    return 1;
  }
  std::cout << "mesh is a valid conforming triangulation; Delaunay: "
            << (dmr::is_delaunay(mesh) ? "yes" : "no") << '\n';
  return 0;
}

int main(int argc, char** argv) {
  return morph::resilience::guarded_main([&] { return run(argc, argv); });
}
