// Replays the minimized regression corpus (tests/corpus/regressions/)
// through the differential harness and runs a short bounded campaign per
// protocol. Carries the `fuzz` ctest label: the fuzz-smoke preset runs
// exactly this file under AddressSanitizer.
//
// Every .case file is an input that once exposed (or was constructed to
// pin) a disagreement between the generated responders and the
// reference; replay must come back non-divergent, non-crashing forever.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "fuzz/corpus.hpp"
#include "fuzz/differential.hpp"

#ifndef SAGE_FUZZ_CORPUS_DIR
#error "build must define SAGE_FUZZ_CORPUS_DIR (see tests/CMakeLists.txt)"
#endif

namespace sage::fuzz {
namespace {

const std::vector<CorpusCase>& corpus() {
  static const std::vector<CorpusCase> cases = [] {
    std::vector<std::string> errors;
    auto loaded = load_corpus_dir(SAGE_FUZZ_CORPUS_DIR, &errors);
    for (const auto& e : errors) ADD_FAILURE() << e;
    return loaded;
  }();
  return cases;
}

CaseResult replay(const CorpusCase& c) {
  FuzzOptions options;
  options.protocol = c.packet.protocol;
  options.minimize = false;  // corpus cases are already minimal
  return DifferentialFuzzer(options).run_case(c.packet, util::SplitMix64(1));
}

TEST(FuzzRegressions, CorpusLoadsAndIsNontrivial) {
  const auto& cases = corpus();
  EXPECT_GE(cases.size(), 10u);
  for (const auto& c : cases) {
    EXPECT_FALSE(c.note.empty()) << c.name << ": every case documents itself";
    EXPECT_FALSE(c.packet.bytes.empty()) << c.name;
    EXPECT_EQ(c.packet.mutation, MutationKind::kHandWritten) << c.name;
  }
}

TEST(FuzzRegressions, EveryCaseReplaysClean) {
  for (const auto& c : corpus()) {
    const CaseResult r = replay(c);
    EXPECT_NE(r.verdict, Verdict::kDivergent)
        << c.name << ": " << r.detail << " (" << c.note << ")";
    EXPECT_NE(r.verdict, Verdict::kCrash)
        << c.name << ": " << r.detail << " (" << c.note << ")";
  }
}

TEST(FuzzRegressions, ReplayVerdictsAreDeterministic) {
  for (const auto& c : corpus()) {
    const CaseResult a = replay(c);
    const CaseResult b = replay(c);
    EXPECT_EQ(a.verdict, b.verdict) << c.name;
    EXPECT_EQ(a.capture_hash, b.capture_hash) << c.name;
  }
}

TEST(FuzzRegressions, KeyVerdictsPinBehavior) {
  // A few cases assert more than "not divergent": the short-read pin must
  // stay silent on both sides (no phantom reply built from zero-filled
  // fields), and the minimized parameter-problem reproducer must still
  // produce an actual agreeing reply, not dodge the scenario.
  for (const auto& c : corpus()) {
    if (c.name == "icmp-short-read-one-byte") {
      EXPECT_EQ(replay(c).verdict, Verdict::kAgreeSilent) << c.name;
    } else if (c.name == "icmp-param-problem-offender-code" ||
               c.name == "icmp-oversize-echo") {
      EXPECT_EQ(replay(c).verdict, Verdict::kAgreeBytes) << c.name;
    }
  }
}

/// FNV-1a over a string, length-prefixed (8 bytes LE) like the other
/// capture goldens.
std::uint64_t line_hash(const std::string& line) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto add = [&h](std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  for (int i = 0; i < 8; ++i) {
    add(static_cast<std::uint8_t>(line.size() >> (8 * i)));
  }
  for (const unsigned char c : line) add(c);
  return h;
}

TEST(FuzzRegressions, VerdictLogsAreByteStableAcrossDeliveryKernels) {
  // The event-queue kernel swap must be invisible to the fuzzer: a
  // delay-heavy campaign (delay faults are the path that changed — they
  // are now real future-time events) and every corpus replay under
  // delay faults must reproduce the verdict logs the synchronous kernel
  // recorded before it was retired.
  FuzzOptions options;
  options.protocol = "icmp";
  options.seed = 21;
  options.iterations = 40;
  options.minimize = false;
  options.faults = *FaultPlan::parse("delay=40,dup=15,reorder=15");
  EXPECT_EQ(DifferentialFuzzer(options).run().log_hash, 0x1fad9abe507075e7ULL);

  // Per case: line_hash of its verdict-log line (verdict, capture hash,
  // detail) under delay=60 with fault rng 9.
  static const std::map<std::string, std::uint64_t> kCaseGolden = {
      {"bfd-length-mismatch", 0x4c6f5c60570db860ULL},
      {"dhcp-option-length-lie", 0xf5d119e17ceec935ULL},
      {"dhcp-truncated-mid-option", 0x6a8051c026f8175cULL},
      {"icmp-bad-checksum-echo", 0x88b8b82e9c3a454aULL},
      {"icmp-delay-fault-kernel-swap", 0x90545c8b5c47b221ULL},
      {"icmp-echo-nonzero-code", 0x443976489b8b8eb5ULL},
      {"icmp-info-request-with-payload", 0x7e0173b4be055c98ULL},
      {"icmp-oversize-echo", 0xe8c4c161cef20bfdULL},
      {"icmp-param-problem-offender-code", 0xb6337250906dca1aULL},
      {"icmp-short-read-one-byte", 0xef200488f0130827ULL},
      {"icmp-timestamp-short-block", 0xb5d07251ef01f1a2ULL},
      {"icmp-truncated-ip-only", 0xa7b579d17728f517ULL},
      {"icmp6-short-read-echo-stub", 0x2e39aeecf0a6ec4bULL},
      {"igmp-bad-checksum", 0xfb9d176ae4ab5af2ULL},
      {"ntp-bad-version", 0x8f81b3aa408e79aaULL},
      {"udp-truncated-header", 0x01f1347878199c06ULL},
  };
  for (const auto& c : corpus()) {
    FuzzOptions replay_options;
    replay_options.protocol = c.packet.protocol;
    replay_options.minimize = false;
    replay_options.faults = *FaultPlan::parse("delay=60");
    const CaseResult r = DifferentialFuzzer(replay_options)
                             .run_case(c.packet, util::SplitMix64(9));
    const auto golden = kCaseGolden.find(c.name);
    ASSERT_NE(golden, kCaseGolden.end()) << c.name << " has no pinned golden";
    EXPECT_EQ(line_hash(DifferentialFuzzer::log_line(0, r)), golden->second)
        << c.name << ": " << DifferentialFuzzer::log_line(0, r);
  }
}

TEST(FuzzRegressions, VerdictLogHashesPinnedAcrossZeroCopyRefactor) {
  // Golden verdict-log hashes recorded BEFORE the arena/span packet
  // path landed (sage_debug --fuzz icmp --seed 7 --iters 200, with and
  // without the standard fault mix). The refactor is a representation
  // change only — fault decisions draw from the same rng stream in the
  // same order, corruption happens in a scratch slab instead of a fresh
  // vector, captures alias the run arena — so these hashes must never
  // move. If one does, packet bytes or fault ordering changed.
  FuzzOptions options;
  options.protocol = "icmp";
  options.seed = 7;
  options.iterations = 200;
  options.minimize = false;

  const FuzzReport plain = DifferentialFuzzer(options).run();
  EXPECT_TRUE(plain.clean()) << plain.summary();
  EXPECT_EQ(plain.log_hash, 0x977c831ef2574809ULL);

  options.faults =
      *FaultPlan::parse("loss=5,dup=10,reorder=20,delay=10,corrupt=5");
  const FuzzReport faulted = DifferentialFuzzer(options).run();
  EXPECT_TRUE(faulted.clean()) << faulted.summary();
  EXPECT_EQ(faulted.log_hash, 0xe45da0b06eb80274ULL);

  // The same campaign fanned over 8 workers lands on the identical log,
  // byte for byte.
  options.jobs = 8;
  EXPECT_EQ(DifferentialFuzzer(options).run().log_hash, 0xe45da0b06eb80274ULL);
}

TEST(FuzzRegressions, VerdictLogHashesPinnedAcrossExecBackends) {
  // The threaded-code VM is a pure execution-backend swap: the generated
  // responder must behave byte-for-byte like the tree interpreter it
  // replaced. Re-run the zero-copy golden campaigns on BOTH backends and
  // demand the same pre-VM hashes. If either hash moves, the VM changed
  // observable behaviour (reply bytes, error ordering, or silence).
  FuzzOptions options;
  options.protocol = "icmp";
  options.seed = 7;
  options.iterations = 200;
  options.minimize = false;

  for (const auto backend :
       {runtime::vm::ExecBackend::kTree, runtime::vm::ExecBackend::kThreaded}) {
    options.backend = backend;
    options.faults = FaultPlan{};
    const FuzzReport plain = DifferentialFuzzer(options).run();
    EXPECT_TRUE(plain.clean()) << plain.summary();
    EXPECT_EQ(plain.log_hash, 0x977c831ef2574809ULL)
        << "backend " << static_cast<int>(backend);

    options.faults =
        *FaultPlan::parse("loss=5,dup=10,reorder=20,delay=10,corrupt=5");
    const FuzzReport faulted = DifferentialFuzzer(options).run();
    EXPECT_TRUE(faulted.clean()) << faulted.summary();
    EXPECT_EQ(faulted.log_hash, 0xe45da0b06eb80274ULL)
        << "backend " << static_cast<int>(backend);
  }
}

TEST(FuzzRegressions, BoundedCampaignPerProtocolStaysClean) {
  // Small enough for the ASan smoke preset, big enough to cross every
  // mutation class (test_fuzz pins taxonomy coverage at this scale).
  for (const auto& proto : PacketGenerator::known_protocols()) {
    FuzzOptions options;
    options.protocol = proto;
    options.seed = 3;
    options.iterations = 50;
    const FuzzReport report = DifferentialFuzzer(options).run();
    EXPECT_TRUE(report.clean()) << report.summary();
    for (const auto& f : report.failures) {
      ADD_FAILURE() << proto << ": " << f.detail;
    }
  }
}

}  // namespace
}  // namespace sage::fuzz
