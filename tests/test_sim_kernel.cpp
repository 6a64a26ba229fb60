// The event-queue kernel's determinism battery.
//
// Four layers of guarantees, weakest to strongest:
//   1. EventQueue property tests — (time, seq) total order, FIFO at equal
//      timestamps, no loss/duplication across randomized schedules.
//   2. Appendix-A goldens — every scenario's pcap hash, capture-log hash
//      (node names included) and event count equal the values recorded
//      against the seed's synchronous recursive simulator, so the kernel
//      has not drifted from the seed behaviour.
//   3. Fault-injection timing — FaultyNetwork delay faults are genuine
//      future-time events, and mixed-fault capture logs still equal the
//      synchronous kernel's sequential-release goldens.
//   4. Soak digests — the traffic-mix driver's digest is independent of
//      --jobs (1/2/8) and, on zero-latency topologies, equal to the
//      synchronous kernel's recorded digest.
//
// Several test names below still say "reference kernel": that kernel was
// retired once these goldens covered it, and the tests now compare
// against its recorded output instead of a live run.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "core/sage.hpp"
#include "corpus/rfc792.hpp"
#include "fuzz/fault_injector.hpp"
#include "net/icmp.hpp"
#include "net/udp.hpp"
#include "runtime/generated_responder.hpp"
#include "runtime/vm/exec.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/ping.hpp"
#include "sim/reference_responder.hpp"
#include "sim/soak.hpp"
#include "sim/topology.hpp"
#include "sim/traceroute.hpp"
#include "util/rng.hpp"

namespace sage::sim {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = kFnvOffset;
  for (const auto b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a over a capture log: entry count, then per entry the sending
/// node's name and the packet bytes, each length-prefixed (8 bytes LE)
/// so adjacent fields cannot run together. Starts from the standard
/// 64-bit offset basis (the pcap goldens above predate it and use
/// kFnvOffset); bench_sim_kernel computes the same digest.
std::uint64_t capture_hash(const std::vector<CaptureEntry>& capture) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto add_bytes = [&h](const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= kFnvPrime;
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

// --- 1. EventQueue property tests -----------------------------------------

TEST(EventQueue, PopsInNondecreasingTimeOrder) {
  EventQueue<int> q;
  q.push(30, 3);
  q.push(10, 1);
  q.push(20, 2);
  EXPECT_EQ(q.pop().payload, 1);
  EXPECT_EQ(q.pop().payload, 2);
  EXPECT_EQ(q.pop().payload, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimestampsDrainInScheduleOrder) {
  EventQueue<std::size_t> q;
  for (std::size_t i = 0; i < 100; ++i) q.push(42, i);
  for (std::size_t i = 0; i < 100; ++i) {
    const auto e = q.pop();
    EXPECT_EQ(e.payload, i) << "FIFO broken at equal timestamps";
    EXPECT_EQ(e.seq, i);
  }
}

TEST(EventQueue, RandomizedSchedulesLoseAndDuplicateNothing) {
  // 10k randomized schedules with interleaved pushes and pops: every
  // payload comes back exactly once, in (time, seq) order.
  util::SplitMix64 rng(0xfeedULL);
  for (int schedule = 0; schedule < 10000; ++schedule) {
    EventQueue<std::uint64_t> q;
    const std::size_t n = 1 + rng.below(32);
    std::vector<bool> seen(n, false);
    std::size_t pushed = 0;
    std::size_t popped = 0;
    std::uint64_t last_time = 0;
    std::uint64_t last_seq = 0;
    bool first = true;
    const auto check_pop = [&] {
      const auto e = q.pop();
      ASSERT_LT(e.payload, n);
      ASSERT_FALSE(seen[e.payload]) << "duplicate delivery";
      seen[e.payload] = true;
      ++popped;
      if (!first) {
        ASSERT_TRUE(e.time_ns > last_time ||
                    (e.time_ns == last_time && e.seq > last_seq))
            << "order violated";
      }
      // A pop may not be globally ordered against events pushed later
      // with earlier times — that cannot happen in the simulator, where
      // events never schedule into the past. Model that: remember the
      // watermark and only push at/after it below.
      first = false;
      last_time = e.time_ns;
      last_seq = e.seq;
    };
    while (pushed < n || popped < n) {
      if (pushed < n && (popped == pushed || rng.chance(60))) {
        q.push(last_time + rng.below(5), pushed);
        ++pushed;
      } else {
        check_pop();
      }
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(std::count(seen.begin(), seen.end(), false), 0)
        << "event lost";
  }
}

TEST(EventQueue, LinkConfigChargesLatencyAndSerialization) {
  EXPECT_EQ((LinkConfig{0, 0}).delay_ns(1500), 0u);
  EXPECT_EQ((LinkConfig{5000, 0}).delay_ns(1500), 5000u);
  // 8 Gbit/s == 1 byte/ns.
  EXPECT_EQ((LinkConfig{1000, 8000000000ULL}).delay_ns(100), 1100u);
}

// --- 2. Appendix-A goldens ------------------------------------------------

/// One Appendix-A scenario: how to drive it, plus goldens recorded
/// against the seed's synchronous simulator — the FNV-1a hash of its
/// capture pcap, the kernel events it takes, and capture_hash() of its
/// capture log (which, unlike the pcap, also names the sending node).
/// Constructions mirror tests/test_sim.cpp exactly.
struct Scenario {
  const char* name;
  std::uint64_t seed_pcap_hash;
  std::size_t seed_events;
  std::uint64_t seed_capture_hash;
  std::function<void(Network&)> drive;
};

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> all = [] {
    std::vector<Scenario> s;
    s.push_back({"ping_router", 0xbee4fa5bb9cda610ULL, 2,
                 0xf0eafa320c297c8eULL, [](Network& net) {
                   PingClient ping;
                   ping.ping(net, "client", net::IpAddr(10, 0, 1, 1));
                 }});
    s.push_back({"ping_server1", 0x1a7ab490b4f3d74dULL, 4,
                 0xf42d59cde6a42d41ULL, [](Network& net) {
                   PingClient ping;
                   ping.ping(net, "client", net::IpAddr(192, 168, 2, 100));
                 }});
    s.push_back({"dest_unreachable", 0x37706b64dc8e533fULL, 2,
                 0x11eefbdbf5e10f15ULL, [](Network& net) {
                   PingClient ping;
                   PingOptions o;
                   o.expect = PingExpect::kDestinationUnreachable;
                   ping.ping(net, "client", net::IpAddr(8, 8, 8, 8), o);
                 }});
    s.push_back({"time_exceeded", 0xfe9f362010f80fcfULL, 2,
                 0xc14f850d4bef13b1ULL, [](Network& net) {
                   PingClient ping;
                   PingOptions o;
                   o.ttl = 1;
                   o.expect = PingExpect::kTimeExceeded;
                   ping.ping(net, "client", net::IpAddr(192, 168, 2, 100), o);
                 }});
    s.push_back({"parameter_problem", 0xe2061ee411858063ULL, 2,
                 0xb96d1d5d65af4d57ULL, [](Network& net) {
                   net.router()->behavior().require_tos_zero = true;
                   net::Ipv4Header ip;
                   ip.tos = 1;
                   ip.protocol = static_cast<std::uint8_t>(net::IpProto::kIcmp);
                   ip.src = net::IpAddr(10, 0, 1, 100);
                   ip.dst = net::IpAddr(192, 168, 2, 100);
                   net::IcmpMessage icmp;
                   icmp.type = net::IcmpType::kEcho;
                   icmp.payload = PingClient::make_payload(56);
                   net.send_from_host("client",
                                      net::build_ipv4_packet(ip, icmp.serialize()));
                 }});
    s.push_back({"source_quench", 0xa67b1212948cab07ULL, 2,
                 0x7a626311bc9fa811ULL, [](Network& net) {
                   net.router()->behavior().full_outbound_interface = 1;
                   net.send_from_host(
                       "client",
                       PingClient::make_echo_request(net::IpAddr(10, 0, 1, 100),
                                                     net::IpAddr(192, 168, 2, 100),
                                                     {}));
                 }});
    s.push_back({"redirect", 0x2cb4ee762e60ec91ULL, 2,
                 0xa31d9fd67041be5bULL, [](Network& net) {
                   net.send_from_host_via_router(
                       "client",
                       PingClient::make_echo_request(net::IpAddr(10, 0, 1, 100),
                                                     net::IpAddr(10, 0, 1, 50),
                                                     {}));
                 }});
    s.push_back({"timestamp", 0x7aa183fac4ae95dbULL, 2,
                 0x72f6aa12c87fc3c9ULL, [](Network& net) {
                   net::Ipv4Header ip;
                   ip.protocol = static_cast<std::uint8_t>(net::IpProto::kIcmp);
                   ip.src = net::IpAddr(10, 0, 1, 100);
                   ip.dst = net::IpAddr(10, 0, 1, 1);
                   net::IcmpMessage icmp;
                   icmp.type = net::IcmpType::kTimestamp;
                   icmp.set_identifier(0x77);
                   icmp.set_timestamps(1234, 0, 0);
                   net.send_from_host("client",
                                      net::build_ipv4_packet(ip, icmp.serialize()));
                 }});
    s.push_back({"info_request", 0x151f21f00e5f6c9fULL, 2,
                 0xb8028b483ad3ba83ULL, [](Network& net) {
                   net::Ipv4Header ip;
                   ip.protocol = static_cast<std::uint8_t>(net::IpProto::kIcmp);
                   ip.src = net::IpAddr(10, 0, 1, 100);
                   ip.dst = net::IpAddr(10, 0, 1, 1);
                   net::IcmpMessage icmp;
                   icmp.type = net::IcmpType::kInformationRequest;
                   icmp.set_identifier(0x31);
                   icmp.set_sequence_number(7);
                   net.send_from_host("client",
                                      net::build_ipv4_packet(ip, icmp.serialize()));
                 }});
    s.push_back({"traceroute", 0x7751758dd9b446b6ULL, 6,
                 0x18726ec3296bf914ULL, [](Network& net) {
                   TracerouteClient tr;
                   tr.trace(net, "client", net::IpAddr(192, 168, 2, 100));
                 }});
    s.push_back({"udp_ports", 0x480edd50adc8386dULL, 6,
                 0xc2d6a22d58fdcea7ULL, [](Network& net) {
                   net.find_host("server1")->open_udp_port(9000);
                   const std::vector<std::uint8_t> payload = {0xca, 0xfe};
                   net::Ipv4Header ip;
                   ip.protocol = static_cast<std::uint8_t>(net::IpProto::kUdp);
                   ip.src = net::IpAddr(10, 0, 1, 100);
                   ip.dst = net::IpAddr(192, 168, 2, 100);
                   net::UdpHeader open;
                   open.src_port = 1111;
                   open.dst_port = 9000;
                   net.send_from_host(
                       "client", net::build_ipv4_packet(
                                     ip, open.serialize(ip.src, ip.dst, payload)));
                   net::UdpHeader closed;
                   closed.src_port = 1111;
                   closed.dst_port = 4242;
                   net.send_from_host(
                       "client",
                       net::build_ipv4_packet(
                           ip, closed.serialize(ip.src, ip.dst, payload)));
                 }});
    return s;
  }();
  return all;
}

/// A fresh Appendix-A network with the reference responder on the
/// router and both servers.
Network appendix_a_network(ReferenceIcmpResponder& responder) {
  Network net = make_appendix_a_network();
  net.router()->set_responder(&responder);
  net.find_host("server1")->set_responder(&responder);
  net.find_host("server2")->set_responder(&responder);
  return net;
}

TEST(AppendixAGoldens, EventKernelMatchesReferenceKernelByteForByte) {
  // The capture log — sending node and packet bytes, entry for entry —
  // equals the synchronous kernel's recorded log.
  for (const auto& scenario : scenarios()) {
    ReferenceIcmpResponder responder;
    Network net = appendix_a_network(responder);
    scenario.drive(net);
    EXPECT_EQ(capture_hash(net.capture()), scenario.seed_capture_hash)
        << scenario.name;
  }
}

TEST(AppendixAGoldens, BothKernelsMatchPreRefactorPcapHashes) {
  // Hashes recorded against the simulator BEFORE the event kernel
  // existed. If one of these moves, the capture-log contract moved.
  for (const auto& scenario : scenarios()) {
    ReferenceIcmpResponder responder;
    Network net = appendix_a_network(responder);
    scenario.drive(net);
    EXPECT_EQ(fnv(net.capture_to_pcap()), scenario.seed_pcap_hash)
        << scenario.name;
  }
}

/// The SAGE-generated ICMP functions, compiled once per suite (the
/// pipeline is deterministic; see tests/test_e2e.cpp for the same
/// memoization).
const core::ProtocolRun& generated_icmp_run() {
  static const core::ProtocolRun run = [] {
    core::Sage sage;
    sage.annotate_non_actionable(corpus::icmp_non_actionable_annotations());
    return sage.process(corpus::rfc792_revised(), "ICMP");
  }();
  return run;
}

std::vector<std::uint8_t> run_scenario_generated(
    const Scenario& scenario, runtime::vm::ExecBackend backend) {
  runtime::GeneratedIcmpResponder responder(backend);
  for (const auto& fn : generated_icmp_run().functions) {
    responder.add_function(fn);
  }
  Network net = make_appendix_a_network();
  net.router()->set_responder(&responder);
  net.find_host("server1")->set_responder(&responder);
  net.find_host("server2")->set_responder(&responder);
  scenario.drive(net);
  return net.capture_to_pcap();
}

TEST(AppendixAGoldens, GeneratedResponderPcapsIdenticalAcrossExecBackends) {
  // The threaded-code VM replaced the tree interpreter as the generated
  // responder's default backend. Every Appendix-A scenario driven
  // through the *generated* code must capture byte-identically on both
  // backends — reply bytes, silence, and ordering all included. This is
  // the simulator-level twin of the fuzz verdict-log pin.
  for (const auto& scenario : scenarios()) {
    const auto tree =
        run_scenario_generated(scenario, runtime::vm::ExecBackend::kTree);
    const auto threaded =
        run_scenario_generated(scenario, runtime::vm::ExecBackend::kThreaded);
    EXPECT_EQ(fnv(tree), fnv(threaded)) << scenario.name;
    EXPECT_EQ(tree, threaded) << scenario.name;
  }
}

TEST(AppendixAGoldens, PooledCaptureBuffersStayGoldenAcrossArenaReuse) {
  // The capture log and pcap stream draw their packet bytes from the
  // Network's run arena. Replaying a scenario on the same Network after
  // clear_transient() must land on the identical pcap from *reused*
  // chunks — same bytes, zero new reservation — or the pool leaks or
  // cross-contaminates runs.
  ReferenceIcmpResponder responder;
  Network net = make_appendix_a_network();
  net.router()->set_responder(&responder);
  net.find_host("server1")->set_responder(&responder);
  net.find_host("server2")->set_responder(&responder);

  const auto drive = [&net] {
    PingClient ping;
    ping.ping(net, "client", net::IpAddr(192, 168, 2, 100));
    TracerouteClient tr;
    tr.trace(net, "client", net::IpAddr(192, 168, 2, 100));
  };

  drive();
  const auto first = net.capture_to_pcap();
  const std::size_t reserved = net.arena().bytes_reserved();
  ASSERT_GT(reserved, 0u);

  for (int run = 0; run < 5; ++run) {
    net.clear_transient();  // rewinds the arena: capture views die here
    drive();
    EXPECT_EQ(net.capture_to_pcap(), first) << "run " << run;
    EXPECT_EQ(net.arena().bytes_reserved(), reserved)
        << "run " << run << " grew the pool";
  }
}

// --- event-kernel time & scheduling semantics ------------------------------

TEST(EventKernel, LinkLatencyAdvancesSimulatedTime) {
  ReferenceIcmpResponder responder;
  Network net = make_appendix_a_network();
  net.router()->set_responder(&responder);
  net.find_host("server1")->set_responder(&responder);
  LinkConfig slow;
  slow.latency_ns = 5000;
  net.set_link(net::IpAddr(192, 168, 2, 0), 24, slow);

  PingClient ping;
  const PingResult result =
      ping.ping(net, "client", net::IpAddr(192, 168, 2, 100));
  EXPECT_TRUE(result.success);
  // The forward hop into 192.168.2.0/24 is charged 5us; the reply path
  // crosses no configured link.
  EXPECT_EQ(net.now_ns(), 5000u);
  std::uint64_t last = 0;
  for (const auto& entry : net.capture()) {
    EXPECT_GE(entry.time_ns, last) << "capture timestamps must not go back";
    last = entry.time_ns;
  }
}

TEST(EventKernel, ScheduledInjectionsDrainInTimeOrderNotCallOrder) {
  ReferenceIcmpResponder responder;
  Network net = make_appendix_a_network();
  net.router()->set_responder(&responder);

  PingOptions late;
  late.sequence = 2;
  PingOptions early;
  early.sequence = 1;
  const auto late_pkt = PingClient::make_echo_request(
      net::IpAddr(10, 0, 1, 100), net::IpAddr(10, 0, 1, 1), late);
  const auto early_pkt = PingClient::make_echo_request(
      net::IpAddr(10, 0, 1, 100), net::IpAddr(10, 0, 1, 1), early);
  net.schedule_from_host("client", late_pkt, 2000);
  net.schedule_from_host("client", early_pkt, 1000);
  EXPECT_TRUE(net.capture().empty()) << "scheduling must not deliver";
  net.run();
  ASSERT_EQ(net.capture().size(), 4u);  // two requests + two replies
  EXPECT_EQ(net.capture()[0].packet, early_pkt)
      << "the earlier timestamp wins regardless of schedule order";
  EXPECT_EQ(net.capture()[2].packet, late_pkt);
}

TEST(EventKernel, EventsProcessedCountsMatchAcrossKernels) {
  // events_processed counts transmission activations, the unit the
  // synchronous kernel counted: cut-through dispatch must not change it.
  for (const auto& scenario : scenarios()) {
    ReferenceIcmpResponder responder;
    Network net = appendix_a_network(responder);
    scenario.drive(net);
    EXPECT_EQ(net.events_processed(), scenario.seed_events) << scenario.name;
  }
}

TEST(EventKernel, ClearTransientKeepsTopologyAndClock) {
  ReferenceIcmpResponder responder;
  Network net = make_appendix_a_network();
  net.router()->set_responder(&responder);
  LinkConfig slow;
  slow.latency_ns = 1000;
  net.set_link(net::IpAddr(10, 0, 1, 0), 24, slow);
  PingClient ping;
  ping.ping(net, "client", net::IpAddr(10, 0, 1, 1));
  ASSERT_FALSE(net.capture().empty());
  const std::uint64_t t = net.now_ns();
  EXPECT_GT(t, 0u);
  net.clear_transient();
  EXPECT_TRUE(net.capture().empty());
  EXPECT_TRUE(net.find_host("client")->inbox().empty());
  EXPECT_EQ(net.now_ns(), t) << "the clock survives a session wipe";
  EXPECT_NE(net.find_host("client"), nullptr);
}

TEST(EventKernel, UnknownHostNameIsANoOp) {
  // Every by-name injection point ignores a name the network lacks:
  // nothing is captured, queued or delivered, and the network stays
  // usable afterwards.
  ReferenceIcmpResponder responder;
  Network net = make_appendix_a_network();
  net.router()->set_responder(&responder);
  const auto request = PingClient::make_echo_request(
      net::IpAddr(10, 0, 1, 100), net::IpAddr(10, 0, 1, 1), PingOptions{});
  net.send_from_host("nobody", request);
  net.send_from_host_via_router("nobody", request);
  net.schedule_from_host("nobody", request, 1000);
  net.schedule_from_host("nobody", request, 1000, /*via_router=*/true);
  EXPECT_EQ(net.run(), 0u);
  EXPECT_TRUE(net.capture().empty());
  EXPECT_EQ(net.events_processed(), 0u);
  EXPECT_EQ(net.now_ns(), 0u);

  net.send_from_host("client", request);
  EXPECT_EQ(net.capture().size(), 2u) << "request + reply after the no-ops";
}

// --- 3. Fault-injection timing --------------------------------------------

std::vector<std::uint8_t> echo_to_router(std::uint16_t sequence) {
  PingOptions opts;
  opts.sequence = sequence;
  return PingClient::make_echo_request(net::IpAddr(10, 0, 1, 100),
                                       net::IpAddr(10, 0, 1, 1), opts);
}

TEST(FaultDelay, DelayedPacketsAreFutureTimeEvents) {
  ReferenceIcmpResponder responder;
  Network net = make_appendix_a_network();
  net.router()->set_responder(&responder);
  fuzz::FaultPlan plan;
  plan.delay = 100;  // hold everything
  fuzz::FaultyNetwork wire(net, plan, util::SplitMix64(1));
  wire.send("client", echo_to_router(1));
  wire.send("client", echo_to_router(2));
  EXPECT_TRUE(net.capture().empty()) << "held packets must not transmit";
  EXPECT_EQ(net.now_ns(), 0u);
  wire.flush();
  // Releases are scheduled kDelayNs out, spaced kDelaySpacingNs apart.
  EXPECT_EQ(net.now_ns(), fuzz::FaultyNetwork::kDelayNs +
                              fuzz::FaultyNetwork::kDelaySpacingNs);
  ASSERT_EQ(net.capture().size(), 4u);
  EXPECT_EQ(net.capture()[0].time_ns, fuzz::FaultyNetwork::kDelayNs);
  EXPECT_EQ(net.capture()[0].packet, echo_to_router(1));
  EXPECT_EQ(net.capture()[2].packet, echo_to_router(2));
}

TEST(FaultDelay, CaptureAgreesWithReferenceKernelUnderMixedFaults) {
  // Same plan, seeds 1..20: the (node, packet) capture sequence equals
  // the one the synchronous kernel's sequential release recorded — the
  // byte-stability the fuzz verdict logs depend on.
  static constexpr std::uint64_t kSeedCaptureHash[] = {
      0xddb0f85c207c9d47ULL, 0x45ce5c5e17a03298ULL,
      0x5143831eb514d4e5ULL, 0x814ce43a9bada367ULL,
      0x0bc82ebda0308535ULL, 0x3504b4a245e326c5ULL,
      0xed5ea8bd0c8511efULL, 0x7a481b852c4b732fULL,
      0x58138c1c960e2247ULL, 0x5e5defc816251d07ULL,
      0x37e0e97fdbd11ba0ULL, 0x1d2dda33cb16293fULL,
      0x298048ebe09a1307ULL, 0x0c7a0e56ff392677ULL,
      0x51eb4c640b770e7fULL, 0xfb9e97cb95e5eb2fULL,
      0xd703559ff28fe457ULL, 0x0040bfd588beb180ULL,
      0xc9e6035ddaf1ce87ULL, 0xb70c74775aad1698ULL,
  };
  fuzz::FaultPlan plan;
  plan.delay = 40;
  plan.dup = 20;
  plan.reorder = 20;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ReferenceIcmpResponder responder;
    Network net = make_appendix_a_network();
    net.router()->set_responder(&responder);
    net.find_host("server1")->set_responder(&responder);
    fuzz::FaultyNetwork wire(net, plan, util::SplitMix64(seed));
    for (std::uint16_t s = 1; s <= 6; ++s) {
      wire.send("client", echo_to_router(s));
    }
    wire.flush();
    EXPECT_EQ(capture_hash(net.capture()), kSeedCaptureHash[seed - 1])
        << "seed " << seed;
  }
}

// --- 4. Soak digests -------------------------------------------------------

SoakOptions small_star_soak() {
  SoakOptions options;
  options.topology.kind = TopologyKind::kStar;
  options.topology.hosts = 64;
  options.sessions = 24;
  options.seed = 11;
  return options;
}

TEST(SoakDeterminism, DigestIndependentOfJobs) {
  SoakOptions options = small_star_soak();
  options.jobs = 1;
  const SoakReport one = run_soak(options);
  options.jobs = 2;
  const SoakReport two = run_soak(options);
  options.jobs = 8;
  const SoakReport eight = run_soak(options);
  EXPECT_EQ(one.digest, two.digest);
  EXPECT_EQ(one.digest, eight.digest);
  EXPECT_EQ(one.events, eight.events);
  EXPECT_EQ(one.transmissions, eight.transmissions);
  ASSERT_EQ(one.log.size(), eight.log.size());
  for (std::size_t i = 0; i < one.log.size(); ++i) {
    EXPECT_EQ(one.log[i], eight.log[i]) << "session " << i;
  }
}

TEST(SoakDeterminism, EventKernelMatchesReferenceOnZeroLatencyStar) {
  // Digest and transmission count the synchronous kernel recorded for
  // this soak: on ideal wires, queue scheduling and cut-through dispatch
  // reproduce its depth-first delivery order exactly.
  SoakOptions options = small_star_soak();
  options.jobs = 2;
  const SoakReport report = run_soak(options);
  EXPECT_EQ(report.digest, 0x1b20b0ba8e1a6899ULL);
  EXPECT_EQ(report.transmissions, 86u);
}

TEST(SoakDeterminism, FatTreeSoakDigestIndependentOfJobs) {
  SoakOptions options;
  options.topology.kind = TopologyKind::kFatTree;
  options.topology.hosts = 256;
  options.sessions = 12;
  options.seed = 5;
  options.jobs = 1;
  const SoakReport one = run_soak(options);
  options.jobs = 4;
  const SoakReport four = run_soak(options);
  EXPECT_EQ(one.digest, four.digest);
}

TEST(SoakDeterminism, RandomTopologySoakIsSeedDeterministic) {
  SoakOptions options;
  options.topology.kind = TopologyKind::kRandom;
  options.topology.hosts = 96;
  options.topology.seed = 17;
  options.sessions = 16;
  options.seed = 17;
  options.jobs = 2;
  const SoakReport a = run_soak(options);
  const SoakReport b = run_soak(options);
  EXPECT_EQ(a.digest, b.digest);
  options.seed = 18;
  const SoakReport c = run_soak(options);
  EXPECT_NE(a.digest, c.digest) << "different seeds must soak differently";
}

}  // namespace
}  // namespace sage::sim
