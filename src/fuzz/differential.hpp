// Differential conformance checking: generated code vs reference.
//
// For ICMP the oracle is the paper's own evaluation setup doubled: two
// Appendix-A networks, one whose router/hosts run the generated
// interpreter responder and one running sim::ReferenceIcmpResponder, fed
// byte-identical (fault-processed) traffic. The capture logs must then
// agree byte-for-byte, or at least decode identically through the
// tcpdump model (PacketInspector) — anything else is a divergence worth
// a regression-corpus entry. A second oracle compares SchemaExecEnv
// field reads against raw schema wire reads, which is what pins the
// short-read fix (truncated packets must not read as zeros).
//
// ICMPv6 gets the same twin-responder treatment without the network in
// between: every event RFC 4443 defines is fired at both the generated
// and the hand-written responder with the fuzzed packet as trigger, and
// every reply must agree byte-for-byte.
//
// For the other protocols (igmp/ntp/bfd/udp/dhcp) there is no second
// responder to diff against, so the oracles are structural: the net/
// struct parsers vs schema wire reads, read→write→read round trips, the
// exec envs vs the wire, inspector stability, and — for layers with an
// options region — TLV round-trip identity on the well-formed prefix.
//
// Everything is deterministic in (seed, protocol, iterations, faults):
// the verdict log is byte-identical across 1/2/8 worker threads, which
// tests/test_fuzz.cpp pins.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/fault_injector.hpp"
#include "fuzz/generator.hpp"
#include "runtime/vm/exec.hpp"

namespace sage::fuzz {

enum class Verdict : std::uint8_t {
  kAgreeBytes,     // captures byte-identical (replies present)
  kAgreeSemantic,  // bytes differ, PacketInspector decodes identically
  kAgreeSilent,    // both sides silent / input unparseable everywhere
  kDivergent,      // observable disagreement
  kCrash,          // an implementation threw
};

const char* verdict_name(Verdict verdict);

struct CaseResult {
  Verdict verdict = Verdict::kAgreeSilent;
  FuzzPacket packet;
  std::uint64_t capture_hash = 0;  // FNV-1a over both sides' observations
  std::string detail;              // first mismatch, deterministic text
  std::vector<std::uint8_t> minimized;  // failures only, when enabled
};

struct FuzzOptions {
  std::string protocol = "icmp";  // lowercase generator name
  std::uint64_t seed = 1;
  std::size_t iterations = 100;
  std::size_t jobs = 1;  // >1 fans iterations over a util::ThreadPool
  FaultPlan faults;      // applied identically to both networks
  bool minimize = true;  // greedily reduce failing inputs
  /// Which backend the generated responder executes on. A pure
  /// execution knob: verdict logs are pinned byte-identical across
  /// kThreaded and kTree (tests/test_fuzz_regressions.cpp).
  runtime::vm::ExecBackend backend = runtime::vm::ExecBackend::kThreaded;
};

struct FuzzReport {
  FuzzOptions options;
  std::size_t agree_bytes = 0;
  std::size_t agree_semantic = 0;
  std::size_t agree_silent = 0;
  std::size_t divergent = 0;
  std::size_t crashes = 0;
  /// One line per iteration, index-ordered; identical for identical
  /// options regardless of jobs.
  std::vector<std::string> log;
  std::uint64_t log_hash = 0;  // FNV-1a over the log lines
  std::vector<CaseResult> failures;  // divergent + crash cases

  bool clean() const { return divergent == 0 && crashes == 0; }
  std::string summary() const;
};

class DifferentialFuzzer {
 public:
  explicit DifferentialFuzzer(FuzzOptions options);

  const FuzzOptions& options() const { return options_; }

  /// Generate + check options().iterations packets. Thread-count
  /// independent output.
  FuzzReport run() const;

  /// Check a single packet (corpus replay, minimization probes).
  /// `fault_rng` seeds the fault decisions for both networks.
  CaseResult run_case(const FuzzPacket& packet,
                      util::SplitMix64 fault_rng) const;

  /// Format the deterministic verdict-log line for one case.
  static std::string log_line(std::size_t index, const CaseResult& result);

 private:
  CaseResult run_icmp_case(const FuzzPacket& packet,
                           util::SplitMix64 fault_rng) const;
  CaseResult run_icmp6_case(const FuzzPacket& packet) const;
  CaseResult run_layer_case(const FuzzPacket& packet) const;
  void minimize_case(CaseResult& result, util::SplitMix64 fault_rng) const;

  FuzzOptions options_;
};

}  // namespace sage::fuzz
