#include "graph/graph.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.h"

namespace slumber {

VertexId checked_vertex_count(std::uint64_t n, const char* what) {
  if (n > std::numeric_limits<VertexId>::max()) {
    throw std::overflow_error(std::string(what) + ": vertex count " +
                              std::to_string(n) + " overflows VertexId");
  }
  return static_cast<VertexId>(n);
}

std::uint64_t checked_edge_count(std::uint64_t m, const char* what) {
  if (m > std::numeric_limits<EdgeId>::max()) {
    throw std::overflow_error(std::string(what) + ": edge count " +
                              std::to_string(m) + " overflows EdgeId");
  }
  return m;
}

Graph::Graph(VertexId n, std::vector<Edge> edges) : n_(n) {
  checked_edge_count(edges.size(), "Graph");
  for (Edge& e : edges) {
    if (e.u >= n || e.v >= n) {
      throw std::invalid_argument("Graph: edge endpoint out of range");
    }
    if (e.u == e.v) {
      throw std::invalid_argument("Graph: self-loops are not allowed");
    }
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  num_edges_ = edges.size();

  std::vector<std::uint32_t> deg(n, 0);
  for (const Edge& e : edges) {
    ++deg[e.u];
    ++deg[e.v];
  }
  offsets_.assign(std::uint64_t{n} + 1, 0);
  for (VertexId v = 0; v < n; ++v) offsets_[v + 1] = offsets_[v] + deg[v];
  adjacency_.resize(offsets_[n]);

  std::vector<CsrOffset> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Edge& e : edges) {
    adjacency_[cursor[e.u]++] = e.v;
    adjacency_[cursor[e.v]++] = e.u;
  }
  // Edges are sorted by (u, v), so each vertex's neighbor list as filled
  // above is sorted for the 'u' side but not necessarily for the 'v' side;
  // sort each range to guarantee the documented port order.
  for (VertexId v = 0; v < n; ++v) {
    std::sort(adjacency_.begin() + static_cast<std::ptrdiff_t>(offsets_[v]),
              adjacency_.begin() + static_cast<std::ptrdiff_t>(offsets_[v + 1]));
    max_degree_ = std::max(max_degree_, deg[v]);
  }
}

std::vector<Edge> Graph::edges() const {
  // Up-entries in CSR order: u ascending, then each range's v > u
  // ascending — the sorted, normalized order EdgeId indexes.
  std::vector<Edge> out;
  out.reserve(num_edges_);
  for (VertexId u = 0; u < n_; ++u) {
    for (const VertexId v : neighbors(u)) {
      if (v > u) out.push_back({u, v});
    }
  }
  return out;
}

Graph Graph::from_csr(VertexId n, util::PodVector<CsrOffset> offsets,
                      util::PodVector<VertexId> adjacency,
                      util::ThreadPool* pool) {
  if (offsets.size() != std::uint64_t{n} + 1 || offsets.front() != 0 ||
      offsets.back() != adjacency.size() || adjacency.size() % 2 != 0) {
    throw std::invalid_argument("Graph::from_csr: malformed CSR shape");
  }
  checked_edge_count(adjacency.size() / 2, "Graph::from_csr");
  obs::Span span("graph", "from_csr_validate", n);
  Graph g;
  g.n_ = n;
  g.num_edges_ = adjacency.size() / 2;
  g.offsets_ = std::move(offsets);
  g.adjacency_ = std::move(adjacency);
  // Per-vertex checks: monotone in-bounds offsets, each range sorted
  // strictly ascending (no duplicates), in-range endpoints, no
  // self-loops. Independent per vertex, so the scan shards over the pool
  // with per-chunk degree maxima merged after the barrier.
  const CsrOffset entries = g.adjacency_.size();
  auto check_vertices = [&g, n, entries](VertexId begin, VertexId end,
                                         std::uint32_t* max_degree) {
    for (VertexId v = begin; v < end; ++v) {
      if (g.offsets_[v] > g.offsets_[v + 1] ||
          g.offsets_[v + 1] > entries) {
        throw std::invalid_argument("Graph::from_csr: offsets not monotone");
      }
      const auto nbrs = g.neighbors(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId u = nbrs[i];
        if (u >= n) {
          throw std::invalid_argument(
              "Graph::from_csr: endpoint out of range");
        }
        if (u == v) {
          throw std::invalid_argument("Graph::from_csr: self-loop");
        }
        if (i > 0 && nbrs[i - 1] >= u) {
          throw std::invalid_argument(
              "Graph::from_csr: adjacency range not sorted ascending");
        }
      }
      *max_degree = std::max(*max_degree, g.degree(v));
    }
  };
  // Symmetry, after every range is known sorted and in bounds: one
  // cursor walk over the destination block [begin, end). cursor[u]
  // starts at u's first slot; visiting v ascending, each up-entry u > v
  // of v's range inside the block must be the entry at cursor[u], which
  // then advances. Because u's down half is ascending, the walk matches
  // it entry for entry against the up-entries naming u, in the same
  // order. When the walk reaches u itself (every v < u done), cursor[u]
  // must sit exactly at u's first up-entry: a down-entry without its
  // mirror, or an up-entry without one, leaves it elsewhere. Cursors
  // only advance, so one that ever leaves u's down half fails that
  // check; the per-step `c < entries` bound just keeps the read in
  // bounds until then.
  util::PodVector<CsrOffset> cursor;
  cursor.resize(n);
  auto check_symmetry = [&g, &cursor, entries](VertexId begin,
                                               VertexId end) {
    const CsrOffset* off = g.offsets_.data();
    const VertexId* adj = g.adjacency_.data();
    CsrOffset* cur = cursor.data();
    for (VertexId u = begin; u < end; ++u) cur[u] = off[u];
    for (VertexId v = 0; v < end; ++v) {
      // Skip to v's first up-entry inside the block (ranges are short;
      // a linear scan beats a binary search here).
      const VertexId lo = std::max<VertexId>(v + 1, begin);
      CsrOffset i = off[v];
      const CsrOffset last = off[v + 1];
      while (i != last && adj[i] < lo) ++i;
      if (v >= begin && cur[v] != i) {
        throw std::invalid_argument("Graph::from_csr: asymmetric adjacency");
      }
      for (; i != last && adj[i] < end; ++i) {
        const CsrOffset c = cur[adj[i]]++;
        if (c >= entries || adj[c] != v) {
          throw std::invalid_argument(
              "Graph::from_csr: asymmetric adjacency");
        }
      }
    }
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    const std::size_t chunks = pool->num_chunks(n);
    std::vector<std::uint32_t> degree_parts(chunks, 0);
    pool->parallel_for_range(
        n, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          check_vertices(static_cast<VertexId>(begin),
                         static_cast<VertexId>(end), &degree_parts[chunk]);
        });
    for (const std::uint32_t d : degree_parts) {
      g.max_degree_ = std::max(g.max_degree_, d);
    }
    // Destination blocks: block b owns the cursors of one contiguous
    // vertex range and walks every v below its end. Down halves grow
    // with the vertex id on graphs like G(n, p), so 2 blocks per lane
    // claimed largest-first pair a heavy block with a light one.
    const std::uint64_t blocks = std::min<std::uint64_t>(
        n, std::uint64_t{2} * pool->num_threads());
    pool->parallel_for_index(blocks, [&](std::size_t i) {
      const std::uint64_t b = blocks - 1 - i;
      check_symmetry(static_cast<VertexId>(b * n / blocks),
                     static_cast<VertexId>((b + 1) * n / blocks));
    });
  } else {
    check_vertices(0, n, &g.max_degree_);
    check_symmetry(0, n);
  }
  return g;
}

std::int64_t Graph::port_to(VertexId v, VertexId u) const {
  auto nbrs = neighbors(v);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), u);
  if (it == nbrs.end() || *it != u) return -1;
  return it - nbrs.begin();
}

std::pair<Graph, std::vector<VertexId>> Graph::induced(
    std::span<const VertexId> vertices) const {
  // Sorted (original, new) pairs instead of a hash map: lookups are
  // lower_bound on a contiguous array, and the relabeling carries no
  // implementation-defined container state (lint rule slumber-d2).
  std::vector<VertexId> to_original(vertices.begin(), vertices.end());
  std::vector<std::pair<VertexId, VertexId>> to_new;
  to_new.reserve(to_original.size());
  for (VertexId i = 0; i < to_original.size(); ++i) {
    to_new.emplace_back(to_original[i], i);
  }
  std::sort(to_new.begin(), to_new.end());
  if (std::adjacent_find(to_new.begin(), to_new.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first;
                         }) != to_new.end()) {
    throw std::invalid_argument("Graph::induced: duplicate vertex");
  }
  const auto lookup = [&to_new](VertexId original) -> std::int64_t {
    auto it = std::lower_bound(
        to_new.begin(), to_new.end(), original,
        [](const auto& entry, VertexId key) { return entry.first < key; });
    if (it == to_new.end() || it->first != original) return -1;
    return it->second;
  };
  // Walk the subset's up-entries: each kept edge {u, v}, u < v, is
  // visited once, from u. Ids >= n have no neighbors (they come out
  // isolated).
  std::vector<Edge> sub_edges;
  for (const auto& [u, iu] : to_new) {
    if (u >= n_) continue;
    for (const VertexId v : neighbors(u)) {
      if (v <= u) continue;
      const std::int64_t iv = lookup(v);
      if (iv < 0) continue;
      sub_edges.push_back({iu, static_cast<VertexId>(iv)});
    }
  }
  return {Graph(static_cast<VertexId>(to_original.size()), std::move(sub_edges)),
          std::move(to_original)};
}

Graph Graph::line_graph() const {
  const auto m = checked_vertex_count(num_edges_, "Graph::line_graph");
  // Bucket edge ids by endpoint; any two edge ids in the same bucket are
  // adjacent in the line graph. Ids count up-entries in CSR order (the
  // EdgeId order of edges()).
  std::vector<std::vector<EdgeId>> incident(n_);
  EdgeId e = 0;
  for (VertexId u = 0; u < n_; ++u) {
    for (const VertexId v : neighbors(u)) {
      if (v <= u) continue;
      incident[u].push_back(e);
      incident[v].push_back(e);
      ++e;
    }
  }
  GraphBuilder builder(m);
  for (VertexId v = 0; v < n_; ++v) {
    const auto& bucket = incident[v];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      for (std::size_t j = i + 1; j < bucket.size(); ++j) {
        builder.add_edge(bucket[i], bucket[j]);
      }
    }
  }
  return std::move(builder).build();
}

std::string Graph::summary() const {
  return "n=" + std::to_string(n_) + " m=" + std::to_string(num_edges_) +
         " maxdeg=" + std::to_string(max_degree_);
}

void GraphBuilder::add_edges(std::span<const Edge> edges) {
  const std::size_t needed = edges_.size() + edges.size();
  if (needed > edges_.capacity()) {
    edges_.reserve(std::max(needed, edges_.size() + edges_.size() / 2));
  }
  for (const Edge& e : edges) edges_.push_back(normalize(e.u, e.v));
}

Graph GraphBuilder::build() && {
  return Graph(n_, std::move(edges_));
}

}  // namespace slumber
