// Incremental Andersen points-to analysis (ROADMAP: incremental recompute
// for dynamic inputs). The inclusion fixed point is monotone — points-to
// sets only grow — so new constraints never require a teardown: they seed a
// worklist with just their endpoints and propagation resumes from the
// current solution. Since the fixed point of a constraint set is unique,
// the resumed solution is exactly `solve_gpu` of the accumulated set, for
// any `--host-workers` count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpu/device.hpp"
#include "pta/constraints.hpp"
#include "pta/solve.hpp"

namespace morph::pta {

/// Persistent solver state between constraint batches. Treat as opaque;
/// mutate only through make_pta_state / apply_updates.
struct PtaState {
  ConstraintSet cs;  ///< accumulated constraints
  PtsSets pts;       ///< current fixed point (sorted, duplicate-free sets)
  /// Materialized subset edges, outgoing: edges_out[src] is the sorted set
  /// of dst vars (copy constraints plus edges derived from loads/stores).
  std::vector<std::vector<Var>> edges_out;
  std::vector<std::vector<Var>> loads_from;  ///< q -> {p : p = *q}
  std::vector<std::vector<Var>> stores_to;   ///< p -> {q : *p = q}
  std::uint64_t rounds = 0;       ///< cumulative propagation rounds
  std::uint64_t edges_added = 0;  ///< cumulative materialized edges
  std::uint64_t pts_total = 0;    ///< current sum of set sizes
};

/// Result of one batch: sizes after the batch plus this batch's cost.
struct PtaDelta {
  std::uint64_t pts_total = 0;    ///< post-batch sum of set sizes
  std::uint64_t pts_added = 0;    ///< facts discovered by this batch
  std::uint64_t edges_added = 0;  ///< edges materialized by this batch
  std::uint64_t rounds = 0;       ///< propagation rounds this batch
  double modeled_cycles = 0.0;
};

/// Empty state over `num_vars` variables (no constraints, all sets empty).
PtaState make_pta_state(std::uint32_t num_vars);

/// Folds a batch of new constraints into the fixed point. Only the batch's
/// endpoints seed the worklist; propagation touches the affected closure.
PtaDelta apply_updates(PtaState& st, std::span<const Constraint> updates,
                       gpu::Device& dev);

/// FNV-1a digest of (num_vars, all points-to sets); the session replies'
/// byte-identity token.
std::uint64_t state_digest(const PtaState& st);

}  // namespace morph::pta
