// Differential backend oracle: the threaded-code VM (ExecBackend::
// kThreaded) vs the tree-walking reference interpreter (kTree) on 1k
// fuzz-generated inputs per protocol (icmp / igmp / ntp / bfd / udp).
//
// The contract under test is absolute: for identical inputs the two
// backends must produce byte-equal replies and identical env mutations
// — same capture logs through the simulator, same serialized packets,
// same state-variable values, same error diagnostics in the same order.
// Any divergence found here gets minimized into tests/corpus/
// regressions/ like every other differential failure (none were needed:
// the backends have never disagreed on a generated input).
//
// Inputs come from the same structure-aware PacketGenerator the fuzz
// harness uses, so coverage tracks the mutation taxonomy (boundary
// values, bit flips, field swaps, truncation, oversize payloads, bad
// checksums/versions) rather than blind byte noise.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "core/generated_icmp.hpp"
#include "core/sage.hpp"
#include "corpus/rfc1059.hpp"
#include "corpus/rfc1112.hpp"
#include "corpus/rfc5880.hpp"
#include "fuzz/generator.hpp"
#include "net/bfd.hpp"
#include "net/ipv4.hpp"
#include "net/ntp.hpp"
#include "net/udp.hpp"
#include "runtime/bfd_session.hpp"
#include "runtime/generated_responder.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/schema_env.hpp"
#include "runtime/vm/exec.hpp"
#include "runtime/vm/program.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace sage {
namespace {

using runtime::vm::ExecBackend;

constexpr std::size_t kIterations = 1000;
constexpr std::uint64_t kSeed = 0x5a6e1d;

// ---- memoized pipeline runs (processing an RFC is deterministic) ----------

const core::ProtocolRun& igmp_run() {
  static const core::ProtocolRun run = [] {
    core::Sage sage;
    sage.annotate_non_actionable(corpus::igmp_non_actionable_annotations());
    return sage.process(corpus::rfc1112_appendix_i(), "IGMP");
  }();
  return run;
}

const core::ProtocolRun& ntp_run() {
  static const core::ProtocolRun run = [] {
    core::Sage sage;
    sage.annotate_non_actionable(corpus::ntp_non_actionable_annotations());
    return sage.process(corpus::rfc1059_appendices(), "NTP");
  }();
  return run;
}

const codegen::GeneratedFunction& bfd_reception() {
  static const core::ProtocolRun run = [] {
    core::Sage sage;
    return sage.process(corpus::rfc5880_state_section(), "BFD");
  }();
  EXPECT_EQ(run.functions.size(), 1u);
  return run.functions.front();
}

// ---- simulator-level oracle (icmp / udp) ----------------------------------

/// Drive one fuzz packet through a fresh Appendix-A network whose
/// router and hosts all run `responder`, mirroring the fuzz harness's
/// injection context (redirect routing, parameter-problem router
/// strictness, source-quench interface pressure). No faults: the fault
/// plan is orthogonal to the execution backend and pinned elsewhere
/// (FuzzRegressions.VerdictLogHashesPinnedAcrossExecBackends).
std::vector<sim::OwnedCaptureEntry> drive_network(
    runtime::GeneratedIcmpResponder& responder, const fuzz::FuzzPacket& pkt) {
  sim::Network net = sim::make_appendix_a_network();
  net.router()->set_responder(&responder);
  net.find_host("server1")->set_responder(&responder);
  net.find_host("server2")->set_responder(&responder);
  net.find_host("server1")->open_udp_port(9000);
  if (pkt.require_tos_zero) net.router()->behavior().require_tos_zero = true;
  if (pkt.full_outbound) {
    net.router()->behavior().full_outbound_interface = *pkt.full_outbound;
  }
  if (pkt.via_router) {
    net.send_from_host_via_router("client", pkt.bytes);
  } else {
    net.send_from_host("client", pkt.bytes);
  }
  return sim::own_capture(net.capture());
}

void run_network_differential(const std::string& protocol) {
  runtime::GeneratedIcmpResponder tree(ExecBackend::kTree);
  runtime::GeneratedIcmpResponder threaded(ExecBackend::kThreaded);
  for (const auto& fn : core::canonical_icmp_run().functions) {
    tree.add_function(fn);
    threaded.add_function(fn);
  }

  const fuzz::PacketGenerator generator(protocol);
  std::size_t replies = 0;
  for (std::size_t i = 0; i < kIterations; ++i) {
    util::SplitMix64 rng = util::SplitMix64(kSeed).fork(i);
    const fuzz::FuzzPacket pkt = generator.generate(rng);

    const auto cap_tree = drive_network(tree, pkt);
    const auto cap_threaded = drive_network(threaded, pkt);

    ASSERT_EQ(cap_tree.size(), cap_threaded.size())
        << protocol << " case " << i << " scenario=" << pkt.scenario
        << " mutation=" << fuzz::mutation_kind_name(pkt.mutation);
    for (std::size_t e = 0; e < cap_tree.size(); ++e) {
      ASSERT_EQ(cap_tree[e].node, cap_threaded[e].node)
          << protocol << " case " << i << " entry " << e;
      ASSERT_EQ(cap_tree[e].packet, cap_threaded[e].packet)
          << protocol << " case " << i << " entry " << e
          << " scenario=" << pkt.scenario
          << " mutation=" << fuzz::mutation_kind_name(pkt.mutation);
      if (cap_tree[e].node != "client") ++replies;
    }
    EXPECT_EQ(tree.last_errors(), threaded.last_errors())
        << protocol << " case " << i;
  }
  // The sweep must actually exercise generated code, not just agree on
  // silence.
  EXPECT_GT(replies, 0u) << protocol;
}

TEST(VmDifferential, IcmpFuzzPacketsProduceByteEqualCaptures) {
  run_network_differential("icmp");
}

TEST(VmDifferential, UdpFuzzPacketsProduceByteEqualCaptures) {
  run_network_differential("udp");
}

// ---- env-level oracle (igmp / ntp) ----------------------------------------

/// Execute `fn` on both backends against identically-prepared envs and
/// compare every observable: result, errors, and the fully serialized
/// output packet.
void expect_env_parity(const codegen::GeneratedFunction& fn,
                       runtime::SchemaExecEnv& env_tree,
                       runtime::SchemaExecEnv& env_vm,
                       net::IpAddr destination, const char* label,
                       std::size_t index) {
  const auto program = runtime::vm::compile(fn);
  ASSERT_TRUE(program.has_value()) << fn.name;
  const runtime::ExecResult tree =
      runtime::Interpreter().run(fn.body, env_tree);
  const runtime::ExecResult vm = runtime::vm::execute(*program, env_vm);
  ASSERT_EQ(tree.ok, vm.ok) << label << " case " << index << " " << fn.name;
  ASSERT_EQ(tree.errors, vm.errors)
      << label << " case " << index << " " << fn.name;
  ASSERT_EQ(env_tree.finish(destination), env_vm.finish(destination))
      << label << " case " << index << " " << fn.name;
  EXPECT_EQ(env_tree.timeout_called(), env_vm.timeout_called())
      << label << " case " << index << " " << fn.name;
  EXPECT_EQ(env_tree.packet_transmitted(), env_vm.packet_transmitted())
      << label << " case " << index << " " << fn.name;
}

TEST(VmDifferential, IgmpGeneratedSendersMutateEnvsIdentically) {
  ASSERT_FALSE(igmp_run().functions.empty());
  const fuzz::PacketGenerator generator("igmp");
  for (std::size_t i = 0; i < kIterations; ++i) {
    util::SplitMix64 rng = util::SplitMix64(kSeed).fork(i);
    const fuzz::FuzzPacket pkt = generator.generate(rng);
    // IGMP handlers are senders — the fuzz packet seeds the env instead
    // of arriving through it: the host group under announcement is drawn
    // from the (possibly mutated) group-address bytes.
    const auto ip = net::Ipv4Header::parse(pkt.bytes);
    net::IpAddr group(224, 0, 0, 1);
    if (ip && pkt.bytes.size() >= ip->header_length() + 8) {
      const std::span<const std::uint8_t> igmp =
          std::span<const std::uint8_t>(pkt.bytes).subspan(ip->header_length());
      group = net::IpAddr(igmp[4], igmp[5], igmp[6], igmp[7]);
    }
    const net::IpAddr own(10, 0, 1, static_cast<std::uint8_t>(1 + i % 250));
    for (const auto& fn : igmp_run().functions) {
      auto env_tree = runtime::SchemaExecEnv::igmp(own, group);
      auto env_vm = runtime::SchemaExecEnv::igmp(own, group);
      expect_env_parity(fn, env_tree, env_vm, net::IpAddr(224, 0, 0, 1),
                        "igmp", i);
    }
  }
}

TEST(VmDifferential, NtpGeneratedCodeMutatesEnvsIdentically) {
  ASSERT_FALSE(ntp_run().functions.empty());
  const fuzz::PacketGenerator generator("ntp");
  for (std::size_t i = 0; i < kIterations; ++i) {
    util::SplitMix64 rng = util::SplitMix64(kSeed).fork(i);
    const fuzz::FuzzPacket pkt = generator.generate(rng);
    const net::IpAddr own(10, 0, 1, 100);
    const auto clock = static_cast<std::uint32_t>(rng.next());

    // Parse the fuzzed packet back into an incoming NTP message where
    // possible; short or mangled packets fall back to the no-incoming
    // (timeout procedure) env, which both backends must also agree on.
    std::optional<net::NtpPacket> incoming;
    if (const auto ip = net::Ipv4Header::parse(pkt.bytes)) {
      const std::size_t off = ip->header_length() + 8;
      if (pkt.bytes.size() > off) {
        incoming = net::NtpPacket::parse(
            std::span<const std::uint8_t>(pkt.bytes).subspan(off));
      }
    }
    for (const auto& fn : ntp_run().functions) {
      auto env_tree = incoming
                          ? runtime::SchemaExecEnv::ntp(own, clock, *incoming)
                          : runtime::SchemaExecEnv::ntp(own, clock);
      auto env_vm = incoming
                        ? runtime::SchemaExecEnv::ntp(own, clock, *incoming)
                        : runtime::SchemaExecEnv::ntp(own, clock);
      expect_env_parity(fn, env_tree, env_vm, net::IpAddr(192, 168, 2, 100),
                        "ntp", i);
    }
  }
}

// ---- session-level oracle (bfd) -------------------------------------------

TEST(VmDifferential, BfdTwinSessionsStayInLockstep) {
  const auto& fn = bfd_reception();

  // Two long-lived session pairs fed the identical packet stream: state
  // evolves across all 1k packets, so the comparison covers the state
  // machine's reachable region, not just the Down-state transitions.
  const net::IpAddr addr(10, 0, 1, 10);
  const net::IpAddr peer(10, 0, 1, 20);
  runtime::BfdSession tree(addr, 101, &fn, ExecBackend::kTree);
  runtime::BfdSession threaded(addr, 101, &fn, ExecBackend::kThreaded);

  const fuzz::PacketGenerator generator("bfd");
  std::size_t consumed_count = 0;
  for (std::size_t i = 0; i < kIterations; ++i) {
    util::SplitMix64 rng = util::SplitMix64(kSeed).fork(i);
    const fuzz::FuzzPacket pkt = generator.generate(rng);

    // The generator emits standalone control frames; sessions take raw
    // IP packets, so wrap each frame in the UDP/IP framing a peer's
    // transmit path would use.
    net::Ipv4Header ip;
    ip.protocol = static_cast<std::uint8_t>(net::IpProto::kUdp);
    ip.src = peer;
    ip.dst = addr;
    net::UdpHeader udp;
    udp.src_port = net::kBfdControlPort;
    udp.dst_port = net::kBfdControlPort;
    const auto wire =
        net::build_ipv4_packet(ip, udp.serialize(ip.src, ip.dst, pkt.bytes));

    const bool a = tree.receive(wire);
    const bool b = threaded.receive(wire);
    ASSERT_EQ(a, b) << "case " << i << " mutation="
                    << fuzz::mutation_kind_name(pkt.mutation);
    if (a) ++consumed_count;

    const auto& s = tree.state();
    const auto& t = threaded.state();
    ASSERT_EQ(s.session_state, t.session_state) << "case " << i;
    ASSERT_EQ(s.remote_session_state, t.remote_session_state) << "case " << i;
    ASSERT_EQ(s.local_discr, t.local_discr) << "case " << i;
    ASSERT_EQ(s.remote_discr, t.remote_discr) << "case " << i;
    ASSERT_EQ(s.local_diag, t.local_diag) << "case " << i;
    ASSERT_EQ(s.desired_min_tx_interval, t.desired_min_tx_interval)
        << "case " << i;
    ASSERT_EQ(s.required_min_rx_interval, t.required_min_rx_interval)
        << "case " << i;
    ASSERT_EQ(s.remote_min_rx_interval, t.remote_min_rx_interval)
        << "case " << i;
    ASSERT_EQ(s.demand_mode, t.demand_mode) << "case " << i;
    ASSERT_EQ(s.remote_demand_mode, t.remote_demand_mode) << "case " << i;
    ASSERT_EQ(s.detect_mult, t.detect_mult) << "case " << i;
    ASSERT_EQ(s.auth_type, t.auth_type) << "case " << i;
    ASSERT_EQ(s.periodic_transmission_enabled,
              t.periodic_transmission_enabled)
        << "case " << i;
    ASSERT_EQ(s.packet_discarded, t.packet_discarded) << "case " << i;

    // The next outbound control packet serializes from that state.
    ASSERT_EQ(tree.make_control_packet(peer), threaded.make_control_packet(peer))
        << "case " << i;
  }
  EXPECT_GT(consumed_count, 0u) << "no BFD packet reached the generated code";
}

}  // namespace
}  // namespace sage
