// slumber-d6 must-flag fixture: stream_rng / keyed_uniform call sites
// keyed by ad-hoc constants that appear in no registry, with no declared
// discipline.

std::uint64_t fx_draw_rogue(std::uint64_t seed, std::uint64_t v) {
  return util::stream_rng(seed, 0x1234ULL ^ v).next_u64();  // MUST-FLAG(slumber-d6)
}

std::uint64_t fx_draw_unhinted(std::uint64_t seed, std::uint64_t n) {
  const std::uint64_t stream = n * 1000003ULL;
  return util::stream_rng(seed, stream).next_u64();  // MUST-FLAG(slumber-d6)
}

std::uint64_t fx_draw_rogue_chain(std::uint64_t seed, std::uint64_t v,
                                  std::uint64_t lo, std::uint64_t hi) {
  // A two-hop mix chain whose innermost key is an ad-hoc constant, not
  // a registered tag: mixing does not launder it.
  const std::uint64_t stream =
      util::detail::mix(util::detail::mix(0xFEEDULL ^ v, lo), hi);
  return util::stream_rng(seed, stream).next_u64();  // MUST-FLAG(slumber-d6)
}

double fx_uniform_rogue(std::uint64_t seed, std::uint64_t v) {
  return util::keyed_uniform(seed ^ 0xABCDULL, v);  // MUST-FLAG(slumber-d6)
}

double fx_uniform_hoisted_rogue(std::uint64_t seed, std::uint64_t lo,
                                std::uint64_t v) {
  // A hoisted round key folded from an ad-hoc constant: tracing the key
  // back through its definitions reaches no registered tag.
  const std::uint64_t fx_round_key = util::stream_key(seed ^ 0xBEEFULL, lo);
  const std::uint64_t fx_node_key = util::stream_key(fx_round_key, v);
  return util::keyed_uniform(fx_node_key, 1);  // MUST-FLAG(slumber-d6)
}
