// The graphs the fault lane-matrix suites (fault_test, live_fault_test)
// run every protocol and plan on: a G(400, 8/n), and a sparse
// G(400, 1.5/n) whose degree-0 nodes (about a fifth of them) make
// one-node chunks that send nothing, reaching the engine's
// zero-degree accounting branches.
#pragma once

#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"

namespace slumber {

struct LaneMatrixGraph {
  std::string name;
  Graph graph;
};

inline std::vector<LaneMatrixGraph> lane_matrix_graphs() {
  std::vector<LaneMatrixGraph> graphs;
  graphs.push_back({"gnp8", gen::gnp_avg_degree_sharded_csr(400, 8.0, 19)});
  graphs.push_back(
      {"gnp1.5", gen::gnp_avg_degree_sharded_csr(400, 1.5, 19)});
  return graphs;
}

}  // namespace slumber
