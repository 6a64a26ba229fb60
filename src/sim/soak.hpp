// Traffic-mix soak driver for the event-queue simulator kernel.
//
// Runs a seeded mix of production-style protocol sessions — ping
// exchanges, scheduled ping storms, traceroute sweeps, IGMP group churn,
// and BFD session flaps — against a generated topology
// (sim/topology.hpp), fanned across worker threads in deterministic
// chunks. Exposed to the CLI as `sage_debug --soak`.
//
// Determinism contract (tested in tests/test_sim_kernel.cpp): the
// per-session capture digests, and therefore the combined soak digest,
// are a pure function of (topology spec, session count, seed) —
// independent of --jobs. The construction mirrors the differential
// fuzzer's: every session derives its own SplitMix64 stream via
// fork(seed, index), each worker chunk replays its sessions on a private
// topology replica, endpoint state is wiped between sessions
// (Network::clear_transient), and digests hash only (node, packet
// bytes), never timestamps or sequence numbers, so replica history
// cannot leak in.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/topology.hpp"

namespace sage::sim {

struct SoakOptions {
  TopologySpec topology;      // what to soak (kind, hosts, mode)
  std::size_t sessions = 64;  // total protocol sessions across the run
  std::uint64_t seed = 1;     // session-mix master seed
  std::size_t jobs = 1;       // worker threads (digest-invariant)
};

struct SoakReport {
  SoakOptions options;
  std::size_t sessions = 0;
  std::size_t events = 0;         // kernel events processed
  std::size_t transmissions = 0;  // capture entries across all sessions
  std::uint64_t digest = 0;       // FNV over per-session capture digests
  std::size_t peak_memory_bytes = 0;  // max replica footprint observed
  std::vector<std::string> log;   // one line per session, index order

  /// One-line human summary for the CLI.
  std::string summary() const;
};

SoakReport run_soak(const SoakOptions& options);

}  // namespace sage::sim
