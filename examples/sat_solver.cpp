// Survey-propagation SAT solving (the paper's SP application): generates a
// random 3-SAT instance near the hard threshold and solves it with SP +
// decimation + WalkSAT on the simulated GPU, printing the decimation
// trajectory.
//
//   ./build/examples/sat_solver --lits=4000 --ratio=4.1 --k=3
#include <iostream>

#include "example_common.hpp"
#include "gpu/device.hpp"
#include "sp/survey.hpp"
#include "support/cli.hpp"

int run(int argc, char** argv) {
  using namespace morph;
  examples::ExampleCli cli(argc, argv, {"lits", "k", "ratio", "seed"});
  CliArgs& args = cli.args();
  const auto n = static_cast<std::uint32_t>(args.get_int("lits", 3000));
  const auto k = static_cast<std::uint32_t>(args.get_int("k", 3));
  const double ratio = args.get_double("ratio", 4.0);
  const auto m = static_cast<std::uint32_t>(ratio * n);

  std::cout << "random " << k << "-SAT: " << n << " literals, " << m
            << " clauses (ratio " << ratio << ", hard at "
            << sp::hard_ratio(k) << ")\n";

  const sp::Formula f =
      sp::random_ksat(n, m, k, static_cast<std::uint64_t>(
                                   args.get_int("seed", 11)));

  gpu::Device device(gpu::DeviceConfig{.host_workers = host_workers_arg(args),
                                       .faults = cli.faults()});
  sp::SpOptions opts;
  opts.seed = 99;
  const sp::SpResult r = sp::solve_gpu(f, device, opts);

  std::cout << "survey sweeps:        " << r.sweeps << '\n'
            << "decimation phases:    " << r.phases << '\n'
            << "literals fixed by SP: " << r.fixed_by_sp << " of " << n
            << '\n'
            << "WalkSAT flips:        " << r.walksat_flips_used << '\n'
            << "kernel launches:      " << device.stats().launches << '\n';
  if (r.solved) {
    std::cout << "SATISFIABLE — assignment verified against all " << m
              << " clauses\n";
  } else if (r.contradiction) {
    std::cout << "gave up: decimation reached a contradiction (SP is a "
                 "heuristic; rerun with another seed)\n";
  } else {
    std::cout << "gave up: endgame did not converge\n";
  }
  return r.solved ? 0 : 2;
}

int main(int argc, char** argv) {
  return morph::resilience::guarded_main([&] { return run(argc, argv); });
}
