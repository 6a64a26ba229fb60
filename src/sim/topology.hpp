// Generated test topologies for the event-queue simulator kernel.
//
// The paper's evaluation runs every scenario on the tiny Appendix-A
// network (one router, three subnets). Scaling the interop harness to
// soak traffic requires topologies the size of real deployments, built
// deterministically from a (kind, hosts, seed) spec so any failure
// reproduces from its spec alone:
//
//   * kStar      — one core router fanning out /24 subnets of up to 128
//                  hosts each. The minimal routing surface: every
//                  cross-subnet path is host → core → host.
//   * kFatTree   — a k-ary fat-tree (edge/aggregation/core tiers) sized
//                  to the smallest even k with k^3/4 >= hosts, wired
//                  entirely with static routes; longest-prefix match
//                  steers intra-pod traffic below the core.
//   * kRandom    — a seeded random router tree with one host subnet per
//                  router and seeded per-link latencies; next hops are
//                  derived from tree paths, so reachability is total by
//                  construction and verify via unreachable_pairs().
//
// All generators attach a ReferenceIcmpResponder to every node, so the
// generated networks answer pings/traceroutes/closed-port probes exactly
// like the Appendix-A harness does.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/network.hpp"
#include "sim/reference_responder.hpp"

namespace sage::sim {

enum class TopologyKind : std::uint8_t { kStar, kFatTree, kRandom };

std::string topology_kind_name(TopologyKind kind);

/// Deterministic recipe for a generated network. Equal specs produce
/// byte-identically wired topologies (tested at 16/256/1024 hosts).
struct TopologySpec {
  TopologyKind kind = TopologyKind::kStar;
  std::size_t hosts = 16;
  std::uint64_t seed = 1;  // used by kRandom (tree shape, link latencies)
};

/// A generated network plus flat views of its nodes. The Topology owns
/// the responder every node points at, so it must outlive the traffic
/// run (moving a Topology is fine — node storage is stable).
struct Topology {
  TopologySpec spec;
  Network net;
  std::vector<Host*> hosts;      // index order == generation order
  std::vector<Router*> routers;  // index order == generation order
  std::unique_ptr<ReferenceIcmpResponder> responder;
};

Topology make_topology(const TopologySpec& spec);

Topology make_star(std::size_t hosts);
Topology make_fat_tree(std::size_t hosts);
Topology make_random(std::size_t hosts, std::uint64_t seed);

/// Smallest even k whose fat-tree (k^3/4 host slots) fits `hosts`.
int fat_tree_k(std::size_t hosts);

/// Count ordered host pairs (src, dst) that the routing tables cannot
/// connect, by walking gateway -> static-route next hops (up to the hop
/// budget) without generating traffic. 0 means full pairwise
/// reachability.
std::size_t unreachable_pairs(Topology& topo);

}  // namespace sage::sim
