// slumber-d6 must-pass fixture: every stream_rng / keyed_uniform call
// site keys through a registered tag (directly or via a chain of local
// definitions), declares the block-counter discipline, or carries a
// justified NOLINT.

std::uint64_t fx_draw_alpha(std::uint64_t seed, std::uint64_t v) {
  return util::stream_rng(seed, kFxAlphaTag ^ v).next_u64();
}

std::uint64_t fx_draw_beta(std::uint64_t seed, std::uint64_t v) {
  const std::uint64_t stream =
      util::detail::mix(kFxBetaTag ^ v, 0x9E3779B97F4A7C15ULL);
  return util::stream_rng(seed, stream).next_u64();
}

std::uint64_t fx_draw_block(std::uint64_t seed, std::uint64_t b) {
  // SLUMBER-STREAM-DISCIPLINE(block-counter): blocks partition the
  // vertex range disjointly, so the dense block id is itself the
  // stream key; no tag mixing is needed or wanted here.
  return util::stream_rng(seed, b).next_u64();
}

std::uint64_t fx_draw_gamma(std::uint64_t seed, std::uint64_t v,
                            std::uint64_t lo, std::uint64_t hi) {
  // Two-hop mix chain folding a 128-bit round's halves onto the tag —
  // the shape the live-fault layer (burst / live churn / recovery
  // draws) keys with.
  const std::uint64_t stream =
      util::detail::mix(util::detail::mix(kFxGammaTag ^ v, lo), hi);
  return util::stream_rng(seed, stream).next_u64();
}

std::uint64_t fx_draw_legacy(std::uint64_t seed, std::uint64_t n) {
  // NOLINTNEXTLINE(slumber-d6): legacy replay stream kept bit-compatible with v1 traces
  return util::stream_rng(seed, n * 3).next_u64();
}

double fx_uniform_hoisted(std::uint64_t seed, std::uint64_t lo,
                          std::uint64_t hi, std::uint64_t v) {
  // The per-round fault-draw shape: the round half is folded from the
  // tag once, each entity folds into it, and a second uniform of the
  // same entity folds once more.
  const std::uint64_t fx_round_half =
      util::stream_key(util::stream_key(seed ^ kFxGammaTag, lo), hi);
  const std::uint64_t fx_entity_key = util::stream_key(fx_round_half, v);
  return util::keyed_uniform(fx_entity_key, 1);
}
