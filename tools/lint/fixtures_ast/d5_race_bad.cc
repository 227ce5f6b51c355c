// slumber-d5 must-flag fixture: stores through captured references
// that are not indexed by the lane's chunk/index parameters. Analyzed
// as if under src/bulk/; never compiled.

void fx_bad_scan(Pool* pool, std::vector<std::uint64_t>& fx_totals,
                 std::vector<std::uint64_t>& fx_slots) {
  std::uint64_t fx_sum = 0;
  std::size_t fx_cursor = 0;
  pool->parallel_for_range(
      fx_slots.size(),
      [&](std::size_t c, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          fx_sum += fx_slots[i];        // MUST-FLAG(slumber-d5)
          fx_totals[0] += fx_slots[i];  // MUST-FLAG(slumber-d5)
          fx_slots[fx_cursor++] = i;    // MUST-FLAG(slumber-d5)
        }
        fx_totals[c] += 1;
      });
}

void fx_bad_span(Engine& eng, const std::vector<Vertex>& fx_members,
                 std::vector<std::uint32_t>& fx_stamp) {
  std::uint64_t fx_seen = 0;
  eng.scan_awake(fx_members,
                 [&](Chunk& chunk, std::span<const Vertex> part) {
                   for (const Vertex v : part) {
                     fx_stamp[v] = 1;
                     ++fx_seen;  // MUST-FLAG(slumber-d5)
                     chunk.keep(v);
                   }
                 });
}

// A neighbor of a lane's node is owned by whichever lane owns it: an
// index drawn from an adjacency row is not lane-local.
void fx_bad_neighbor(Engine& eng, const Graph& g,
                     const std::vector<Vertex>& fx_members,
                     std::vector<std::uint8_t>& fx_flag) {
  eng.scan_awake(fx_members,
                 [&](Chunk& chunk, std::span<const Vertex> part) {
                   for (const Vertex v : part) {
                     const std::span<const Vertex> fx_nbrs = g.neighbors(v);
                     for (const Vertex u : fx_nbrs) {
                       fx_flag[u] |= 1;  // MUST-FLAG(slumber-d5)
                     }
                     for (const Vertex w : g.neighbors(v)) {
                       fx_flag[w] = 2;  // MUST-FLAG(slumber-d5)
                     }
                     fx_flag[v] = 3;
                   }
                 });
}
