// Strongly connected components (iterative Tarjan). A graph utility that
// no solver calls (DESIGN.md §3, "Extensions").
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace morph::graph {

struct SccResult {
  /// Component id of each node (ids are dense, 0..num_components-1, in
  /// reverse topological order of the condensation).
  std::vector<std::uint32_t> component;
  std::uint32_t num_components = 0;
};

/// Tarjan's algorithm, iterative (safe for deep graphs).
SccResult strongly_connected_components(const CsrGraph& g);

}  // namespace morph::graph
