#include "sim/soak.hpp"

#include <algorithm>
#include <cstdio>

#include "net/bfd.hpp"
#include "net/igmp.hpp"
#include "net/udp.hpp"
#include "sim/ping.hpp"
#include "sim/traceroute.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sage::sim {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_bytes(std::uint64_t h, const std::uint8_t* data,
                        std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Digest of one session's capture log: (node, packet bytes) only.
/// Timestamps and queue sequence numbers are deliberately excluded — they
/// carry replica history (the clock runs across sessions), which would
/// make the digest depend on how sessions were chunked over workers.
std::uint64_t digest_capture(const std::vector<CaptureEntry>& capture) {
  std::uint64_t h = kFnvOffset;
  for (const auto& entry : capture) {
    h = fnv_bytes(h, reinterpret_cast<const std::uint8_t*>(entry.node.data()),
                  entry.node.size());
    h ^= 0xff;
    h *= kFnvPrime;
    h = fnv_bytes(h, entry.packet.data(), entry.packet.size());
    h ^= 0xfe;
    h *= kFnvPrime;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// A raw IPv4 datagram carrying one serialized protocol message.
std::vector<std::uint8_t> ip_packet(net::IpAddr src, net::IpAddr dst,
                                    net::IpProto proto, std::uint8_t ttl,
                                    const std::vector<std::uint8_t>& payload) {
  net::Ipv4Header ip;
  ip.protocol = static_cast<std::uint8_t>(proto);
  ip.ttl = ttl;
  ip.src = src;
  ip.dst = dst;
  return net::build_ipv4_packet(ip, payload);
}

/// The gateway interface address serving `host` (where IGMP reports go:
/// the sim has no multicast fabric, so group membership is reported to
/// the first-hop router, TTL 1, exactly like RFC 1112 reports never
/// leave the local network).
net::IpAddr gateway_address(Topology& topo, const Host& host) {
  Router* gw = topo.net.router_serving(host.address());
  if (gw == nullptr) return net::IpAddr{};
  const auto ifc = gw->interface_for(host.address());
  return ifc ? gw->interfaces()[*ifc].address : net::IpAddr{};
}

std::string run_ping_session(Topology& topo, util::SplitMix64& rng) {
  const std::size_t a = rng.below(topo.hosts.size());
  std::size_t b = rng.below(topo.hosts.size());
  if (b == a) b = (b + 1) % topo.hosts.size();
  PingOptions opts;
  opts.identifier = static_cast<std::uint16_t>(0x4000 + rng.below(0x1000));
  PingClient ping;
  const PingResult result =
      ping.ping(topo.net, topo.hosts[a]->name(), topo.hosts[b]->address(), opts);
  return "ping src=" + topo.hosts[a]->name() + " dst=" +
         topo.hosts[b]->name() + " ok=" + (result.success ? "1" : "0");
}

std::string run_storm_session(Topology& topo, util::SplitMix64& rng) {
  const std::size_t a = rng.below(topo.hosts.size());
  const Host& src = *topo.hosts[a];
  const std::size_t bursts = 4 + rng.below(5);
  for (std::size_t t = 0; t < bursts; ++t) {
    std::size_t b = rng.below(topo.hosts.size());
    if (b == a) b = (b + 1) % topo.hosts.size();
    PingOptions opts;
    opts.identifier = static_cast<std::uint16_t>(0x5000 + t);
    opts.sequence = static_cast<std::uint16_t>(t + 1);
    // Strictly increasing release times: each burst's cascade is ordered
    // after the previous burst's injection.
    topo.net.schedule_from_host(
        src.name(),
        PingClient::make_echo_request(src.address(), topo.hosts[b]->address(),
                                      opts),
        t * 1000);
  }
  topo.net.run();
  return "storm src=" + src.name() + " bursts=" + std::to_string(bursts);
}

std::string run_traceroute_session(Topology& topo, util::SplitMix64& rng) {
  const std::size_t a = rng.below(topo.hosts.size());
  std::size_t b = rng.below(topo.hosts.size());
  if (b == a) b = (b + 1) % topo.hosts.size();
  TracerouteClient client;
  const TracerouteResult result = client.trace(
      topo.net, topo.hosts[a]->name(), topo.hosts[b]->address());
  return "traceroute src=" + topo.hosts[a]->name() + " dst=" +
         topo.hosts[b]->name() + " hops=" + std::to_string(result.hops.size()) +
         " reached=" + (result.reached_destination ? "1" : "0");
}

std::string run_igmp_session(Topology& topo, util::SplitMix64& rng) {
  const std::size_t a = rng.below(topo.hosts.size());
  Host& host = *topo.hosts[a];
  const net::IpAddr gw = gateway_address(topo, host);
  const std::size_t rounds = 2 + rng.below(3);
  for (std::size_t i = 0; i < rounds; ++i) {
    net::IgmpMessage report;
    report.type = net::IgmpType::kHostMembershipReport;
    report.group_address =
        net::IpAddr(224, 0, 0, static_cast<std::uint8_t>(1 + rng.below(250)));
    topo.net.send_from_host(
        host, ip_packet(host.address(), gw, net::IpProto::kIgmp, 1,
                        report.serialize()));
  }
  return "igmp host=" + host.name() + " rounds=" + std::to_string(rounds);
}

std::string run_bfd_session(Topology& topo, util::SplitMix64& rng) {
  const std::size_t a = rng.below(topo.hosts.size());
  std::size_t b = rng.below(topo.hosts.size());
  if (b == a) b = (b + 1) % topo.hosts.size();
  Host& ha = *topo.hosts[a];
  Host& hb = *topo.hosts[b];
  const auto da = static_cast<std::uint32_t>(1 + rng.below(0xffff));
  const auto db = static_cast<std::uint32_t>(1 + rng.below(0xffff));

  const auto send_control = [&](Host& from, const Host& to,
                                net::BfdState state, std::uint32_t mine,
                                std::uint32_t yours, net::BfdDiag diag) {
    net::BfdControlPacket pkt;
    pkt.state = state;
    pkt.diag = diag;
    pkt.my_discriminator = mine;
    pkt.your_discriminator = yours;
    net::UdpHeader udp;
    udp.src_port = net::kBfdControlPort;
    udp.dst_port = net::kBfdControlPort;
    topo.net.send_from_host(
        from,
        ip_packet(from.address(), to.address(), net::IpProto::kUdp, 255,
                  udp.serialize(from.address(), to.address(), pkt.serialize())));
  };

  // Three-way bring-up, then a flap (RFC 5880 §6.8.6): Down -> Init ->
  // Up on both sides, then one side signals the session down.
  send_control(ha, hb, net::BfdState::kDown, da, 0, net::BfdDiag::kNone);
  send_control(hb, ha, net::BfdState::kInit, db, da, net::BfdDiag::kNone);
  send_control(ha, hb, net::BfdState::kUp, da, db, net::BfdDiag::kNone);
  send_control(hb, ha, net::BfdState::kUp, db, da, net::BfdDiag::kNone);
  send_control(ha, hb, net::BfdState::kDown, da, db,
               net::BfdDiag::kNeighborSignaledSessionDown);
  return "bfd a=" + ha.name() + " b=" + hb.name();
}

std::string run_session(Topology& topo, util::SplitMix64& rng) {
  switch (rng.below(5)) {
    case 0:
      return run_ping_session(topo, rng);
    case 1:
      return run_storm_session(topo, rng);
    case 2:
      return run_traceroute_session(topo, rng);
    case 3:
      return run_igmp_session(topo, rng);
    default:
      return run_bfd_session(topo, rng);
  }
}

}  // namespace

std::string SoakReport::summary() const {
  return "soak " + topology_kind_name(options.topology.kind) +
         " hosts=" + std::to_string(options.topology.hosts) +
         " sessions=" + std::to_string(sessions) +
         " jobs=" + std::to_string(options.jobs) +
         " events=" + std::to_string(events) +
         " tx=" + std::to_string(transmissions) + " digest=" + hex64(digest) +
         " peak_mem_kb=" + std::to_string(peak_memory_bytes / 1024);
}

SoakReport run_soak(const SoakOptions& options) {
  const std::size_t sessions = options.sessions;
  const std::size_t jobs = std::max<std::size_t>(1, options.jobs);
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min(jobs, sessions));

  std::vector<std::uint64_t> digests(sessions, 0);
  std::vector<std::string> lines(sessions);
  std::vector<std::size_t> events(sessions, 0);
  std::vector<std::size_t> transmissions(sessions, 0);
  std::vector<std::size_t> chunk_peak(chunks, 0);

  const util::SplitMix64 master(options.seed);
  const auto run_chunk = [&](std::size_t c) {
    const std::size_t lo = c * sessions / chunks;
    const std::size_t hi = (c + 1) * sessions / chunks;
    if (lo >= hi) return;
    // Each chunk replays its sessions on a private replica; results land
    // at disjoint session indices, so chunk-to-thread assignment cannot
    // affect the combined report.
    Topology topo = make_topology(options.topology);
    for (Host* h : topo.hosts) h->open_udp_port(net::kBfdControlPort);
    for (std::size_t s = lo; s < hi; ++s) {
      topo.net.clear_transient();
      util::SplitMix64 rng = master.fork(s);
      const std::size_t before = topo.net.events_processed();
      const std::string what = run_session(topo, rng);
      events[s] = topo.net.events_processed() - before;
      transmissions[s] = topo.net.capture().size();
      digests[s] = digest_capture(topo.net.capture());
      lines[s] = "s" + std::to_string(s) + " " + what +
                 " tx=" + std::to_string(transmissions[s]) +
                 " digest=" + hex64(digests[s]);
      chunk_peak[c] =
          std::max(chunk_peak[c], topo.net.approximate_memory_bytes());
    }
  };

  if (chunks == 1) {
    run_chunk(0);
  } else {
    util::ThreadPool pool(jobs);
    pool.parallel_for(chunks, run_chunk);
  }

  SoakReport report;
  report.options = options;
  report.sessions = sessions;
  for (std::size_t s = 0; s < sessions; ++s) {
    report.events += events[s];
    report.transmissions += transmissions[s];
  }
  std::uint64_t combined = kFnvOffset;
  for (const std::uint64_t d : digests) {
    for (int i = 0; i < 8; ++i) {
      combined ^= (d >> (i * 8)) & 0xff;
      combined *= kFnvPrime;
    }
  }
  report.digest = combined;
  for (const std::size_t peak : chunk_peak) {
    report.peak_memory_bytes = std::max(report.peak_memory_bytes, peak);
  }
  report.log = std::move(lines);
  return report;
}

}  // namespace sage::sim
