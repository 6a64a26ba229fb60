#include "sim/topology.hpp"

#include <cassert>
#include <unordered_map>

#include "util/rng.hpp"

namespace sage::sim {

namespace {

constexpr std::size_t kStarSubnetHosts = 128;  // .2 .. .129 within a /24

/// Attach the shared reference responder to every node, so generated
/// networks answer traffic exactly like the Appendix-A harness.
void attach_responders(Topology& topo) {
  topo.responder = std::make_unique<ReferenceIcmpResponder>();
  for (Host* h : topo.hosts) h->set_responder(topo.responder.get());
  for (Router* r : topo.routers) r->set_responder(topo.responder.get());
}

net::IpAddr star_subnet(std::size_t s) {
  return net::IpAddr(10, static_cast<std::uint8_t>(s >> 8),
                     static_cast<std::uint8_t>(s & 0xff), 0);
}

net::IpAddr random_subnet(std::size_t r) {
  return net::IpAddr(10, static_cast<std::uint8_t>(r >> 8),
                     static_cast<std::uint8_t>(r & 0xff), 0);
}

net::IpAddr with_low_octet(net::IpAddr subnet, std::uint8_t low) {
  return net::IpAddr((subnet.value() & 0xffffff00u) | low);
}

}  // namespace

std::string topology_kind_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kStar:
      return "star";
    case TopologyKind::kFatTree:
      return "fat-tree";
    case TopologyKind::kRandom:
      return "random";
  }
  return "?";
}

int fat_tree_k(std::size_t hosts) {
  int k = 2;
  while (static_cast<std::size_t>(k) * k * k / 4 < hosts) k += 2;
  return k;
}

Topology make_star(std::size_t hosts) {
  Topology topo;
  topo.spec = TopologySpec{TopologyKind::kStar, hosts, 1};

  const std::size_t subnets = (hosts + kStarSubnetHosts - 1) / kStarSubnetHosts;
  Router& core = topo.net.add_router("core");
  for (std::size_t s = 0; s < subnets; ++s) {
    core.add_interface(with_low_octet(star_subnet(s), 1), 24);
  }
  topo.routers.push_back(&core);

  for (std::size_t i = 0; i < hosts; ++i) {
    const std::size_t s = i / kStarSubnetHosts;
    const auto low = static_cast<std::uint8_t>(2 + i % kStarSubnetHosts);
    topo.hosts.push_back(&topo.net.add_host(
        "h" + std::to_string(i), with_low_octet(star_subnet(s), low), 24));
  }
  attach_responders(topo);
  return topo;
}

Topology make_fat_tree(std::size_t hosts) {
  Topology topo;
  topo.spec = TopologySpec{TopologyKind::kFatTree, hosts, 1};

  const int k = fat_tree_k(hosts);
  const int half = k / 2;
  const auto host_subnet = [](int p, int e) {
    return net::IpAddr(10, static_cast<std::uint8_t>(p),
                       static_cast<std::uint8_t>(e), 0);
  };
  const auto agg_addr = [&](int p, int a) {
    return net::IpAddr(172, static_cast<std::uint8_t>(100 + p),
                       static_cast<std::uint8_t>(a), 1);
  };
  const auto core_addr = [](int c) {
    return net::IpAddr(203, 0, static_cast<std::uint8_t>(c), 1);
  };

  // Edge tier: one /24 host subnet per edge router; everything non-local
  // climbs to this edge's aggregation router.
  for (int p = 0; p < k; ++p) {
    for (int e = 0; e < half; ++e) {
      Router& edge = topo.net.add_router("edge" + std::to_string(p) + "_" +
                                         std::to_string(e));
      edge.add_interface(with_low_octet(host_subnet(p, e), 1), 24);
      edge.add_route(net::IpAddr(10, 0, 0, 0), 8, agg_addr(p, e));
      topo.routers.push_back(&edge);
    }
  }
  // Aggregation tier: /24 routes keep intra-pod traffic below the core
  // (longest prefix beats the /8 up-route).
  for (int p = 0; p < k; ++p) {
    for (int a = 0; a < half; ++a) {
      Router& agg =
          topo.net.add_router("agg" + std::to_string(p) + "_" + std::to_string(a));
      agg.add_interface(agg_addr(p, a), 24);
      for (int e = 0; e < half; ++e) {
        agg.add_route(host_subnet(p, e), 24, with_low_octet(host_subnet(p, e), 1));
      }
      agg.add_route(net::IpAddr(10, 0, 0, 0), 8, core_addr(a * half));
      topo.routers.push_back(&agg);
    }
  }
  // Core tier: one /16 route per pod, descending to that pod's
  // aggregation router in this core's group.
  for (int c = 0; c < half * half; ++c) {
    Router& core = topo.net.add_router("core" + std::to_string(c));
    core.add_interface(core_addr(c), 24);
    for (int p = 0; p < k; ++p) {
      core.add_route(net::IpAddr(10, static_cast<std::uint8_t>(p), 0, 0), 16,
                     agg_addr(p, c / half));
    }
    topo.routers.push_back(&core);
  }

  for (std::size_t i = 0; i < hosts; ++i) {
    const int p = static_cast<int>(i / (half * half));
    const int e = static_cast<int>((i / half) % half);
    const int h = static_cast<int>(i % half);
    topo.hosts.push_back(&topo.net.add_host(
        "h" + std::to_string(i),
        with_low_octet(host_subnet(p, e), static_cast<std::uint8_t>(2 + h)),
        24));
  }
  attach_responders(topo);
  return topo;
}

Topology make_random(std::size_t hosts, std::uint64_t seed) {
  Topology topo;
  topo.spec = TopologySpec{TopologyKind::kRandom, hosts, seed};
  util::SplitMix64 rng(seed);

  // A random router tree: router j > 0 hangs off a uniformly chosen
  // earlier router. One /24 host subnet per router.
  const std::size_t n_routers = hosts / 24 == 0 ? 1 : hosts / 24;
  std::vector<std::size_t> parent(n_routers, 0);
  std::vector<std::vector<std::size_t>> children(n_routers);
  for (std::size_t j = 1; j < n_routers; ++j) {
    parent[j] = rng.below(j);
    children[parent[j]].push_back(j);
  }

  for (std::size_t j = 0; j < n_routers; ++j) {
    Router& r = topo.net.add_router("r" + std::to_string(j));
    r.add_interface(with_low_octet(random_subnet(j), 1), 24);
    topo.routers.push_back(&r);
  }

  // Next-hop table from tree paths: hop[j][d] = neighbour of j on the
  // path to d, filled by a DFS from every source.
  std::vector<std::vector<std::size_t>> hop(
      n_routers, std::vector<std::size_t>(n_routers, 0));
  for (std::size_t src = 0; src < n_routers; ++src) {
    std::vector<std::size_t> stack{src};
    std::vector<std::size_t> via(n_routers, src);
    std::vector<bool> seen(n_routers, false);
    seen[src] = true;
    while (!stack.empty()) {
      const std::size_t cur = stack.back();
      stack.pop_back();
      auto neighbours = children[cur];
      if (cur != 0) neighbours.push_back(parent[cur]);
      for (std::size_t nb : neighbours) {
        if (seen[nb]) continue;
        seen[nb] = true;
        via[nb] = cur == src ? nb : via[cur];
        hop[src][nb] = via[nb];
        stack.push_back(nb);
      }
    }
  }
  for (std::size_t j = 0; j < n_routers; ++j) {
    for (std::size_t d = 0; d < n_routers; ++d) {
      if (d == j) continue;
      topo.routers[j]->add_route(random_subnet(d), 24,
                                 with_low_octet(random_subnet(hop[j][d]), 1));
    }
  }

  // Seeded per-link latency: 1-10us per subnet, so event timestamps
  // exercise real orderings while remaining a pure function of the seed.
  for (std::size_t j = 0; j < n_routers; ++j) {
    LinkConfig link;
    link.latency_ns = 1000 + rng.below(9000);
    topo.net.set_link(random_subnet(j), 24, link);
  }

  for (std::size_t i = 0; i < hosts; ++i) {
    const std::size_t j = i % n_routers;
    const auto low = static_cast<std::uint8_t>(2 + i / n_routers);
    topo.hosts.push_back(&topo.net.add_host(
        "h" + std::to_string(i), with_low_octet(random_subnet(j), low), 24));
  }
  attach_responders(topo);
  return topo;
}

Topology make_topology(const TopologySpec& spec) {
  switch (spec.kind) {
    case TopologyKind::kStar:
      return make_star(spec.hosts);
    case TopologyKind::kFatTree:
      return make_fat_tree(spec.hosts);
    case TopologyKind::kRandom:
      return make_random(spec.hosts, spec.seed);
  }
  return make_star(spec.hosts);
}

std::size_t unreachable_pairs(Topology& topo) {
  // Static-route walk, no traffic: src -> gateway -> next hops until a
  // router has an interface on dst's subnet.
  std::unordered_map<std::uint32_t, Router*> by_addr;
  for (Router* r : topo.routers) {
    for (const auto& ifc : r->interfaces()) by_addr[ifc.address.value()] = r;
  }
  std::vector<Router*> gateway(topo.hosts.size(), nullptr);
  for (std::size_t i = 0; i < topo.hosts.size(); ++i) {
    gateway[i] = topo.net.router_serving(topo.hosts[i]->address());
  }

  std::size_t unreachable = 0;
  for (std::size_t i = 0; i < topo.hosts.size(); ++i) {
    const net::IpAddr src = topo.hosts[i]->address();
    const int prefix = topo.hosts[i]->prefix_len();
    for (std::size_t j = 0; j < topo.hosts.size(); ++j) {
      if (i == j) continue;
      const net::IpAddr dst = topo.hosts[j]->address();
      if (src.same_subnet(dst, prefix)) continue;  // direct neighbour
      Router* r = gateway[i];
      bool reached = false;
      for (int hops = 0; r != nullptr && hops < 16; ++hops) {
        if (r->interface_for(dst)) {
          reached = true;
          break;
        }
        const StaticRoute* route = r->route_for(dst);
        if (route == nullptr) break;
        const auto it = by_addr.find(route->next_hop.value());
        r = it == by_addr.end() ? nullptr : it->second;
      }
      if (!reached) ++unreachable;
    }
  }
  return unreachable;
}

}  // namespace sage::sim
