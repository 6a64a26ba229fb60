// Zero-copy packet-path smoke: the workload behind the
// `zero-copy-smoke` CMake preset (asan+sim). Drives the soak driver on
// a 256-host star — the full generate → inject → route → deliver →
// capture lifecycle over arena-backed spans — so AddressSanitizer gets
// a real shot at any view that outlives its arena, and pins the soak
// digest goldens recorded before the arena/span refactor landed.
#include <gtest/gtest.h>

#include "sim/ping.hpp"
#include "sim/soak.hpp"
#include "sim/topology.hpp"

namespace sage::sim {
namespace {

constexpr std::uint64_t kStar256Digest = 0x572f84e742782cffULL;

SoakReport soak_star256(std::size_t jobs) {
  SoakOptions options;
  options.topology.kind = TopologyKind::kStar;
  options.topology.hosts = 256;
  options.sessions = 60;
  options.seed = 11;
  options.jobs = jobs;
  return run_soak(options);
}

TEST(ZeroCopySmoke, SoakDigestPinnedAcrossJobsAndKernels) {
  // Pre-refactor golden, which the seed's synchronous kernel also
  // produced: the arena representation change must be invisible to the
  // digest at every worker count.
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    const SoakReport report = soak_star256(jobs);
    EXPECT_EQ(report.digest, kStar256Digest) << "jobs=" << jobs;
    EXPECT_EQ(report.sessions, 60u);
  }
}

TEST(ZeroCopySmoke, RunArenaReachesSteadyStateUnderTraffic) {
  // A session loop on one Network must stop reserving after warmup:
  // clear_transient() rewinds the arena and the next session's packets
  // land in the retained chunks. Growth here means a leak of arena
  // memory per session — exactly the bug class the pool exists to kill.
  Topology topo = make_star(256);
  PingClient ping;
  const auto session = [&](int round) {
    for (int i = 0; i < 8; ++i) {
      const auto& src = topo.hosts[(round * 8 + i) % topo.hosts.size()];
      const auto& dst =
          topo.hosts[(round * 8 + i + 128) % topo.hosts.size()];
      EXPECT_TRUE(ping.ping(topo.net, src->name(), dst->address()).success);
    }
    topo.net.clear_transient();
  };

  session(0);  // warmup: chunks reserved here
  const std::size_t reserved = topo.net.arena().bytes_reserved();
  ASSERT_GT(reserved, 0u);
  for (int round = 1; round < 20; ++round) {
    session(round);
    ASSERT_EQ(topo.net.arena().bytes_reserved(), reserved)
        << "arena grew in round " << round;
  }
  // After a drained clear_transient, the run holds no live bytes.
  EXPECT_EQ(topo.net.arena().bytes_allocated(), 0u);
}

}  // namespace
}  // namespace sage::sim
