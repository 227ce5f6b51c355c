#include "graph/io.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace slumber::io {

namespace {

/// Streams every edge as (u, v) with u < v in sorted (u, v) order —
/// identical to iterating Graph::edges(), but off the CSR arrays, with
/// no O(m) edge-list copy.
template <typename Fn>
void for_each_edge_sorted(const Graph& g, Fn&& fn) {
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const VertexId v : g.neighbors(u)) {
      if (v > u) fn(u, v);
    }
  }
}

/// Header edge counts are untrusted: reserve at most this many.
constexpr std::uint64_t kMaxEdgeReserve = std::uint64_t{1} << 20;

/// Range-checks a parsed 0-based endpoint while it is still 64 bits.
VertexId parsed_endpoint(std::uint64_t v, VertexId n, const char* what) {
  if (v >= n) throw std::runtime_error(std::string(what) + ": bad vertex");
  return static_cast<VertexId>(v);
}

}  // namespace

void write_edge_list(std::ostream& out, const Graph& g) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for_each_edge_sorted(
      g, [&](VertexId u, VertexId v) { out << u << ' ' << v << '\n'; });
}

Graph read_edge_list(std::istream& in) {
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  if (!(in >> n >> m)) {
    throw std::runtime_error("read_edge_list: missing header");
  }
  const VertexId vertices = checked_vertex_count(n, "read_edge_list");
  std::vector<Edge> edges;
  edges.reserve(std::min(m, kMaxEdgeReserve));
  for (std::uint64_t i = 0; i < m; ++i) {
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!(in >> u >> v)) {
      throw std::runtime_error("read_edge_list: truncated edge list");
    }
    edges.push_back({parsed_endpoint(u, vertices, "read_edge_list"),
                     parsed_endpoint(v, vertices, "read_edge_list")});
  }
  return Graph(vertices, std::move(edges));
}

void write_dimacs(std::ostream& out, const Graph& g) {
  out << "p edge " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for_each_edge_sorted(g, [&](VertexId u, VertexId v) {
    out << "e " << (u + 1) << ' ' << (v + 1) << '\n';
  });
}

Graph read_dimacs(std::istream& in) {
  std::string line;
  VertexId n = 0;
  bool have_header = false;
  std::vector<Edge> edges;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ls(line);
    char tag = 0;
    ls >> tag;
    if (tag == 'p') {
      std::string kind;
      std::uint64_t header_n = 0;
      std::uint64_t m = 0;
      if (!(ls >> kind >> header_n >> m) || kind != "edge") {
        throw std::runtime_error("read_dimacs: bad problem line");
      }
      n = checked_vertex_count(header_n, "read_dimacs");
      have_header = true;
      edges.reserve(std::min(m, kMaxEdgeReserve));
    } else if (tag == 'e') {
      std::uint64_t u = 0;
      std::uint64_t v = 0;
      if (!have_header || !(ls >> u >> v) || u == 0 || v == 0) {
        throw std::runtime_error("read_dimacs: bad edge line");
      }
      edges.push_back({parsed_endpoint(u - 1, n, "read_dimacs"),
                       parsed_endpoint(v - 1, n, "read_dimacs")});
    } else {
      throw std::runtime_error("read_dimacs: unknown line tag");
    }
  }
  if (!have_header) throw std::runtime_error("read_dimacs: missing header");
  return Graph(n, std::move(edges));
}

void write_dot(std::ostream& out, const Graph& g,
               std::span<const VertexId> highlight) {
  std::vector<bool> marked(g.num_vertices(), false);
  for (VertexId v : highlight) marked[v] = true;
  out << "graph G {\n";
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out << "  " << v;
    if (marked[v]) out << " [style=filled, fillcolor=lightblue]";
    out << ";\n";
  }
  for_each_edge_sorted(g, [&](VertexId u, VertexId v) {
    out << "  " << u << " -- " << v << ";\n";
  });
  out << "}\n";
}

std::string to_string(const Graph& g) {
  std::ostringstream out;
  write_edge_list(out, g);
  return out.str();
}

Graph from_string(const std::string& text) {
  std::istringstream in(text);
  return read_edge_list(in);
}

}  // namespace slumber::io
