// Unit tests for the CSR graph substrate.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace slumber {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(GraphTest, TriangleBasics) {
  Graph g(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.max_degree(), 2u);
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.is_isolated(0));
}

TEST(GraphTest, NeighborsSortedAndPortsConsistent) {
  Graph g(5, {{2, 0}, {2, 4}, {2, 1}, {2, 3}});
  auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(nbrs[1], 1u);
  EXPECT_EQ(nbrs[2], 3u);
  EXPECT_EQ(nbrs[3], 4u);
  for (std::uint32_t p = 0; p < 4; ++p) {
    const VertexId u = g.neighbor(2, p);
    EXPECT_EQ(g.port_to(2, u), static_cast<std::int64_t>(p));
    // The reverse port leads back.
    const auto back = g.port_to(u, 2);
    ASSERT_GE(back, 0);
    EXPECT_EQ(g.neighbor(u, static_cast<std::uint32_t>(back)), 2u);
  }
}

TEST(GraphTest, PortToMissingEdge) {
  Graph g(3, {{0, 1}});
  EXPECT_EQ(g.port_to(0, 2), -1);
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(GraphTest, DuplicateEdgesMerged) {
  Graph g(3, {{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(GraphTest, SelfLoopRejected) {
  EXPECT_THROW(Graph(3, {{1, 1}}), std::invalid_argument);
}

TEST(GraphTest, OutOfRangeEndpointRejected) {
  EXPECT_THROW(Graph(3, {{0, 3}}), std::invalid_argument);
}

TEST(GraphTest, EdgesNormalizedAndSorted) {
  Graph g(4, {{3, 2}, {1, 0}, {2, 0}});
  const std::vector<Edge> edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (Edge{0, 1}));
  EXPECT_EQ(edges[1], (Edge{0, 2}));
  EXPECT_EQ(edges[2], (Edge{2, 3}));
}

TEST(GraphTest, DegreeSumTwiceEdges) {
  Graph g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  EXPECT_EQ(g.degree_sum(), 2 * g.num_edges());
}

TEST(GraphTest, InducedSubgraph) {
  // Path 0-1-2-3-4, induce {0, 2, 3}: keeps only edge {2,3}.
  Graph g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const std::vector<VertexId> keep = {0, 2, 3};
  auto [sub, mapping] = g.induced(keep);
  EXPECT_EQ(sub.num_vertices(), 3u);
  EXPECT_EQ(sub.num_edges(), 1u);
  EXPECT_EQ(mapping, keep);
  EXPECT_TRUE(sub.has_edge(1, 2));  // new ids of 2 and 3
  EXPECT_TRUE(sub.is_isolated(0));  // old 0
}

TEST(GraphTest, InducedDuplicateVertexRejected) {
  Graph g(3, {{0, 1}});
  const std::vector<VertexId> dup = {0, 0};
  EXPECT_THROW(g.induced(dup), std::invalid_argument);
}

// induced() and line_graph() on a graph built straight from CSR (the
// G(n, p) builder's output), against the edge-list definitions.
TEST(GraphTest, InducedOnAllVerticesOfCsrGraphIsTheGraph) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(200, 8.0, 1);
  ASSERT_GT(g.num_edges(), 0u);
  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  auto [sub, mapping] = g.induced(all);
  EXPECT_EQ(mapping, all);
  EXPECT_EQ(sub.num_edges(), g.num_edges());
  EXPECT_TRUE(sub.same_csr(g));
}

TEST(GraphTest, InducedSubsetOfCsrGraphMatchesFilteredEdges) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(200, 8.0, 2);
  Rng rng(2);
  std::vector<VertexId> keep;
  std::vector<VertexId> new_id(g.num_vertices(), kInvalidVertex);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (rng.coin()) {
      new_id[v] = static_cast<VertexId>(keep.size());
      keep.push_back(v);
    }
  }
  std::vector<Edge> filtered;
  for (const Edge& e : g.edges()) {
    if (new_id[e.u] != kInvalidVertex && new_id[e.v] != kInvalidVertex) {
      filtered.push_back({new_id[e.u], new_id[e.v]});
    }
  }
  ASSERT_FALSE(filtered.empty());
  auto [sub, mapping] = g.induced(keep);
  EXPECT_EQ(mapping, keep);
  const Graph expected(static_cast<VertexId>(keep.size()), filtered);
  EXPECT_TRUE(sub.same_csr(expected));
}

TEST(GraphTest, LineGraphOfCsrGraphMatchesEdgeListGraph) {
  const Graph g = gen::gnp_avg_degree_sharded_csr(200, 8.0, 3);
  ASSERT_GT(g.num_edges(), 0u);
  const Graph line = g.line_graph();
  EXPECT_EQ(line.num_vertices(), g.num_edges());
  EXPECT_TRUE(
      line.same_csr(Graph(g.num_vertices(), g.edges()).line_graph()));
}

TEST(GraphTest, LineGraphOfTriangleIsTriangle) {
  Graph g(3, {{0, 1}, {1, 2}, {0, 2}});
  Graph line = g.line_graph();
  EXPECT_EQ(line.num_vertices(), 3u);
  EXPECT_EQ(line.num_edges(), 3u);
}

TEST(GraphTest, LineGraphOfStar) {
  // K_{1,4}: line graph is K_4.
  Graph g(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  Graph line = g.line_graph();
  EXPECT_EQ(line.num_vertices(), 4u);
  EXPECT_EQ(line.num_edges(), 6u);
}

TEST(GraphTest, LineGraphOfPath) {
  // P_4 (3 edges): line graph is P_3 (2 edges).
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  Graph line = g.line_graph();
  EXPECT_EQ(line.num_vertices(), 3u);
  EXPECT_EQ(line.num_edges(), 2u);
}

TEST(GraphTest, BuilderAcceptsBothOrientations) {
  GraphBuilder builder(4);
  builder.add_edge(3, 1);
  builder.add_edge(1, 3);
  builder.add_edge(0, 2);
  EXPECT_EQ(builder.num_added_edges(), 3u);
  Graph g = std::move(builder).build();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphTest, SummaryString) {
  Graph g(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(g.summary(), "n=3 m=2 maxdeg=2");
}

}  // namespace
}  // namespace slumber
