// Tests for graph serialization (edge list, DIMACS, DOT).
#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.h"
#include "graph/io.h"

namespace slumber::io {
namespace {

TEST(IoTest, EdgeListRoundTrip) {
  const Graph g = gen::gnp_sharded_csr(40, 0.2, 11);
  const Graph back = from_string(to_string(g));
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.edges(), g.edges());
}

TEST(IoTest, EdgeListEmptyGraph) {
  const Graph g = gen::empty(5);
  const Graph back = from_string(to_string(g));
  EXPECT_EQ(back.num_vertices(), 5u);
  EXPECT_EQ(back.num_edges(), 0u);
}

TEST(IoTest, EdgeListRejectsMissingHeader) {
  std::istringstream in("");
  EXPECT_THROW(read_edge_list(in), std::runtime_error);
}

TEST(IoTest, EdgeListRejectsTruncated) {
  std::istringstream in("3 2\n0 1\n");
  EXPECT_THROW(read_edge_list(in), std::runtime_error);
}

TEST(IoTest, DimacsRoundTrip) {
  const Graph g = gen::gnp_sharded_csr(30, 0.3, 13);
  std::ostringstream out;
  write_dimacs(out, g);
  std::istringstream in(out.str());
  const Graph back = read_dimacs(in);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.edges(), g.edges());
}

TEST(IoTest, DimacsAllowsComments) {
  std::istringstream in("c a comment\np edge 3 1\nc another\ne 1 2\n");
  const Graph g = read_dimacs(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
}

TEST(IoTest, DimacsRejectsBadHeader) {
  std::istringstream in("p graph 3 1\ne 1 2\n");
  EXPECT_THROW(read_dimacs(in), std::runtime_error);
}

TEST(IoTest, DimacsRejectsEdgeBeforeHeader) {
  std::istringstream in("e 1 2\n");
  EXPECT_THROW(read_dimacs(in), std::runtime_error);
}

TEST(IoTest, DimacsRejectsZeroVertex) {
  std::istringstream in("p edge 3 1\ne 0 2\n");
  EXPECT_THROW(read_dimacs(in), std::runtime_error);
}

TEST(IoTest, DotContainsHighlights) {
  const Graph g = gen::path(3);
  const std::vector<VertexId> mis = {0, 2};
  std::ostringstream out;
  write_dot(out, g, mis);
  const std::string dot = out.str();
  EXPECT_NE(dot.find("graph G {"), std::string::npos);
  EXPECT_NE(dot.find("0 [style=filled"), std::string::npos);
  EXPECT_NE(dot.find("2 [style=filled"), std::string::npos);
  EXPECT_EQ(dot.find("1 [style=filled"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
}

}  // namespace
}  // namespace slumber::io
