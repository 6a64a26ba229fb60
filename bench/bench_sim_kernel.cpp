// Event-queue simulator kernel throughput (not a paper artifact).
//
// The kernel runs the same pre-built probe batches on star topologies of
// 16, 256, and 1024 hosts. Node lookups are hash-indexed, NodeRefs ride
// in events, and zero-delay hops dispatch cut-through, so per-event cost
// should be flat in topology size — the property this bench gates.
//
// Two workloads, measured kernel-time only (packet building and
// transient clears happen outside the timed region):
//   * sweep (gated): every host probes an unassigned address in a far
//     subnet, so packets route through the core and fall off the edge.
//     No responder runs; the workload isolates node resolution and hop
//     dispatch.
//   * ping mix (informational): hosts echo-ping peers across subnets,
//     adding endpoint work (responder reply construction, capture of the
//     reply leg).
//
// Before timing, one batch per point is replayed and its capture log
// (node + packet bytes) hashed against a digest recorded from the seed's
// synchronous kernel. A throughput number from a diverged run can never
// land in the JSON.
//
// Results are written to BENCH_sim_kernel.json (EXPERIMENTS.md records a
// reference run). Exit is nonzero if any capture digest diverges or if
// sweep events/s at 1024 hosts falls below 0.5x sweep events/s at 256
// hosts, measured in the same run. The seed's linear-scan kernel read
// 0.19-0.24 on that ratio and the hash-indexed kernel 0.82-1.39, so the
// gate catches a return to per-hop scans without a cross-machine
// baseline.
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "sim/network.hpp"
#include "sim/ping.hpp"
#include "sim/topology.hpp"

using namespace sage;
using namespace sage::sim;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int kReps = 5;
constexpr int kRounds = 8;  // probe batches per repetition

enum class Workload { kSweep, kPingMix };

/// Capture-log digests of batch 0 per (workload, hosts), recorded from
/// the seed's synchronous kernel (which the event kernel matched entry
/// for entry when both existed).
std::uint64_t pinned_digest(Workload workload, std::size_t hosts) {
  const bool sweep = workload == Workload::kSweep;
  switch (hosts) {
    case 16:
      return sweep ? 0xf6b03591b1bdf038ULL : 0xf489610df7c33df3ULL;
    case 256:
      return sweep ? 0xbc160eb4c6fc34b5ULL : 0x0ee04c0c249ea29fULL;
    default:
      return sweep ? 0x7932f8ff065d75b1ULL : 0x654bf7da3b74a307ULL;
  }
}

/// One pre-built probe batch: (source host index, packet bytes) pairs.
/// Batches depend only on (workload, host count, round).
std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> build_batch(
    const Topology& topo, Workload workload, int round) {
  const std::size_t n = topo.hosts.size();
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t src = i;
    net::IpAddr dst;
    if (workload == Workload::kSweep) {
      // Probe host addresses that were never assigned: star subnets hold
      // at most 128 hosts at .1+, so .200 upward in a *different* subnet
      // routes through the core and falls off the far edge.
      const std::size_t subnets = (n + 127) / 128;
      const std::size_t far = (i / 128 + 1) % subnets;
      dst = net::IpAddr(10, static_cast<std::uint8_t>(far >> 8),
                        static_cast<std::uint8_t>(far & 255),
                        static_cast<std::uint8_t>(200 + (i % 50)));
    } else {
      dst = topo.hosts[(i + n / 2) % n]->address();
    }
    PingOptions opts;
    opts.sequence = static_cast<std::uint16_t>(round * 1024 + i);
    batch.emplace_back(src, PingClient::make_echo_request(
                                topo.hosts[src]->address(), dst, opts));
  }
  return batch;
}

struct Measurement {
  double best_eps = 0.0;
  std::uint64_t events = 0;  // per batch-set
};

/// Replays kRounds batches, timing only the send loop. clear_transient()
/// between rounds (untimed) keeps the capture from growing unboundedly.
Measurement measure(Topology& topo, Workload workload) {
  Network& net = topo.net;
  const std::uint64_t before = net.events_processed();
  double elapsed_ms = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    auto batch = build_batch(topo, workload, round);
    const double t0 = now_ms();
    for (auto& [src, packet] : batch) {
      net.send_from_host(*topo.hosts[src], std::move(packet));
    }
    elapsed_ms += now_ms() - t0;
    net.clear_transient();
  }
  Measurement m;
  m.events = net.events_processed() - before;
  m.best_eps = static_cast<double>(m.events) / (elapsed_ms / 1000.0);
  return m;
}

/// FNV-1a over the capture log: per entry, the sending node's name and
/// the packet bytes, each length-prefixed.
std::uint64_t capture_digest(const std::vector<CaptureEntry>& capture) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto add_bytes = [&h](const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  const auto add_length = [&](std::size_t n) {
    std::uint8_t le[8];
    for (int i = 0; i < 8; ++i) {
      le[i] = static_cast<std::uint8_t>(n >> (8 * i));
    }
    add_bytes(le, 8);
  };
  add_length(capture.size());
  for (const auto& entry : capture) {
    add_length(entry.node.size());
    add_bytes(reinterpret_cast<const std::uint8_t*>(entry.node.data()),
              entry.node.size());
    add_length(entry.packet.size());
    add_bytes(entry.packet.data(), entry.packet.size());
  }
  return h;
}

/// Replays batch 0 on a fresh star and checks its capture digest.
bool capture_matches_pinned(std::size_t hosts, Workload workload) {
  Topology topo = make_star(hosts);
  for (auto& [src, packet] : build_batch(topo, workload, 0)) {
    topo.net.send_from_host(*topo.hosts[src], std::move(packet));
  }
  return capture_digest(topo.net.capture()) == pinned_digest(workload, hosts);
}

}  // namespace

int main() {
  benchutil::title("Simulator kernel throughput",
                   "event-queue kernel, star topologies");

  struct Point {
    const char* workload;
    std::size_t hosts;
    Measurement event;
    bool identical;
  };
  std::vector<Point> points;
  bool all_identical = true;
  char buf[160];

  const struct {
    Workload workload;
    const char* name;
  } workloads[] = {{Workload::kSweep, "sweep"}, {Workload::kPingMix, "ping-mix"}};

  for (const auto& w : workloads) {
    for (const std::size_t hosts : {16u, 256u, 1024u}) {
      const bool identical = capture_matches_pinned(hosts, w.workload);
      all_identical = all_identical && identical;

      Topology topo = make_star(hosts);
      (void)measure(topo, w.workload);  // warmup
      Measurement ev;
      // Keep the best of kReps.
      for (int r = 0; r < kReps; ++r) {
        const Measurement e = measure(topo, w.workload);
        if (e.best_eps > ev.best_eps) ev.best_eps = e.best_eps;
        ev.events = e.events;
      }
      points.push_back({w.name, hosts, ev, identical});

      std::snprintf(buf, sizeof buf, "%9.0f ev/s%s", ev.best_eps,
                    identical ? "" : "  CAPTURE DIVERGED");
      benchutil::row(std::string(w.name) + " " + std::to_string(hosts) +
                         " hosts",
                     buf);
    }
  }

  benchutil::rule();
  double sweep_256 = 0.0;
  double sweep_1024 = 0.0;
  for (const auto& p : points) {
    if (std::string(p.workload) != "sweep") continue;
    if (p.hosts == 256) sweep_256 = p.event.best_eps;
    if (p.hosts == 1024) sweep_1024 = p.event.best_eps;
  }
  const double scaling = sweep_256 > 0.0 ? sweep_1024 / sweep_256 : 0.0;
  const bool gate = scaling >= 0.5;
  std::snprintf(buf, sizeof buf,
                "%.2fx sweep ev/s, 1024 vs 256 hosts (gate: >= 0.5x)",
                scaling);
  benchutil::row(gate ? "scaling gate met" : "SCALING GATE MISSED", buf);
  benchutil::row("determinism contract",
                 all_identical ? "capture digests match the pinned goldens"
                               : "see rows above");

  FILE* json = std::fopen("BENCH_sim_kernel.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    std::fprintf(json,
                 "  \"workloads\": {\"sweep\": \"probes to unassigned far-"
                 "subnet addresses; routing-only, no responder\", "
                 "\"ping-mix\": \"cross-subnet echo sessions\"},\n");
    std::fprintf(json,
                 "  \"method\": \"pre-built batches, kernel send loop "
                 "timed only, best of %d reps x %d rounds\",\n",
                 kReps, kRounds);
    std::fprintf(json, "  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& p = points[i];
      std::fprintf(json,
                   "    {\"workload\": \"%s\", \"hosts\": %zu, "
                   "\"events\": %llu, \"event_eps\": %.0f, "
                   "\"capture_digest_pinned\": %s}%s\n",
                   p.workload, p.hosts,
                   static_cast<unsigned long long>(p.event.events),
                   p.event.best_eps, p.identical ? "true" : "false",
                   i + 1 == points.size() ? "" : ",");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"sweep_eps_1024_over_256\": %.2f,\n", scaling);
    std::fprintf(json, "  \"scaling_gate_half_at_1024_hosts\": %s\n",
                 gate ? "true" : "false");
    std::fprintf(json, "}\n");
    std::fclose(json);
    benchutil::row("written", "BENCH_sim_kernel.json");
  }
  return (all_identical && gate) ? 0 : 1;
}
