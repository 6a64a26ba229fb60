// Deterministic PRNG shared by the fuzzing subsystem and the simulator's
// topology/traffic generators.
//
// SplitMix64: 64-bit state, one multiply-xorshift round per draw. Chosen
// over <random> engines because the standard distributions are
// implementation-defined — the same seed must produce the same bytes on
// every toolchain, and across 1/2/8 worker threads. fork() makes that
// thread-independence structural: every work item derives its own stream
// from (seed, index), so work stealing cannot reorder draws.
#pragma once

#include <cstdint>

namespace sage::util {

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// Next 64 random bits (SplitMix64 step).
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform-ish value in [0, bound). bound must be > 0. The modulo bias
  /// is irrelevant here — determinism is the contract, not uniformity.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

  /// True with probability pct/100.
  bool chance(unsigned pct) { return below(100) < pct; }

  /// Derive an independent stream for sub-task `stream` without
  /// disturbing this generator's state (used per fuzz iteration and per
  /// soak session).
  SplitMix64 fork(std::uint64_t stream) const {
    SplitMix64 child(state_ ^ (stream * 0xd6e8feb86659fd93ULL) ^
                     0xa5a5a5a55a5a5a5aULL);
    (void)child.next();  // decouple from the raw seed
    return child;
  }

 private:
  std::uint64_t state_;
};

}  // namespace sage::util
