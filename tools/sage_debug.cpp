// Diagnostic driver: run the pipeline over a corpus and print per-sentence
// status, counts, and codegen results. Used to iterate on corpus/lexicon.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include "ccg/interner.hpp"
#include "fuzz/differential.hpp"
#include "ccg/parser.hpp"
#include "codegen/generator.hpp"
#include "core/batch.hpp"
#include "core/sage.hpp"
#include "net/schema.hpp"
#include "corpus/rfc792.hpp"
#include "corpus/rfc4443.hpp"
#include "sim/soak.hpp"
#include "corpus/rfc1112.hpp"
#include "corpus/rfc1059.hpp"
#include "corpus/rfc5880.hpp"
#include "nlp/chunker.hpp"
#include "nlp/tokenizer.hpp"
#include "rfc/preprocessor.hpp"
#include "runtime/generated_responder.hpp"
#include "runtime/vm/exec.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/soak.hpp"
#include "serve/stats.hpp"
#include "serve/transport.hpp"
#include "sim/ping.hpp"
using namespace sage;

// --jobs N routes the run through the parallel batch executor (N worker
// threads); the default stays on the serial path. Output is identical
// either way — that is the executor's determinism contract.
std::size_t g_jobs = 0;

// --parse-stats re-parses the corpus cold (no cache) and dumps the
// chart-parser instrumentation: per-stage counters from
// ccg::ParseStats plus the process-wide interner sizes, the generated-
// code execution counters, and (on the threaded backend) per-op
// retirement counts.
bool g_parse_stats = false;

// --exec-backend tree|threaded picks which backend executes the
// generated handlers this tool runs (default: threaded).
runtime::vm::ExecBackend g_backend = runtime::vm::ExecBackend::kThreaded;

const char* backend_name(runtime::vm::ExecBackend b) {
  return b == runtime::vm::ExecBackend::kThreaded ? "threaded" : "tree";
}

void dump_exec_stats() {
  const codegen::ExecStats exec = codegen::exec_stats();
  printf("--- exec stats (backend=%s, dispatcher=%s) ---\n",
         backend_name(g_backend),
         runtime::vm::have_computed_goto() ? "computed-goto" : "switch");
  printf("programs compiled : %zu\n", exec.programs_compiled);
  printf("program bytes     : %zu\n", exec.program_bytes);
  printf("vm ops executed   : %zu\n", exec.ops_executed);
  printf("vm slow-path ops  : %zu\n", exec.slow_path_entries);
  printf("tree stmts run    : %zu\n", exec.tree_stmts_executed);
  const auto counts = runtime::vm::op_counts();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    printf("  %-16s : %llu\n",
           runtime::vm::op_name(static_cast<runtime::vm::Op>(i)),
           static_cast<unsigned long long>(counts[i]));
  }
}

// Exercise the generated ICMP handlers on the selected backend (one
// event per message kind) so the exec counters above reflect real
// executions of this corpus' code.
void exercise_icmp_backend(const core::ProtocolRun& run) {
  if (run.functions.empty()) return;
  runtime::GeneratedIcmpResponder responder(g_backend);
  for (const auto& fn : run.functions) responder.add_function(fn);
  const auto own = net::IpAddr(10, 0, 1, 1);
  const auto peer = net::IpAddr(10, 0, 1, 100);
  const auto request =
      sim::PingClient::make_echo_request(peer, own, {0xde, 0xad, 0xbe, 0xef});
  const sim::ResponderContext ctx{own, request};
  responder.on_echo_request(ctx);
  responder.on_timestamp_request(ctx);
  responder.on_destination_unreachable(ctx, 3);
  responder.on_time_exceeded(ctx);
  responder.on_parameter_problem(ctx, 20);
  responder.on_redirect(ctx, net::IpAddr(10, 0, 2, 1));
}

void dump_parse_stats(const std::string& text, const std::string& proto,
                      const std::vector<std::string>& annotations,
                      const core::Sage& s) {
  const rfc::RfcDocument doc = rfc::preprocess(text, proto);
  const auto sentences = rfc::extract_sentences(doc, proto);
  const nlp::NounPhraseChunker chunker(&s.dictionary());
  const ccg::CcgParser parser(&s.lexicon(), {});
  ccg::ParseStats total;
  std::size_t parses = 0;
  for (const auto& sentence : sentences) {
    const auto tokens = chunker.chunk(nlp::tokenize(sentence.text));
    const ccg::ParseResult r = parser.parse(tokens);
    total.edges_created += r.stats.edges_created;
    total.dedup_hits += r.stats.dedup_hits;
    total.cap_drops += r.stats.cap_drops;
    total.index_probes += r.stats.index_probes;
    total.beta_reductions += r.stats.beta_reductions;
    total.beta_steps += r.stats.beta_steps;
    // Chart-arena counters are cumulative per thread; keep the last
    // parse's view (reserved/high-water are monotone, resets counts all
    // parses so far on this thread).
    total.arena_bytes_reserved = r.stats.arena_bytes_reserved;
    total.arena_high_water = r.stats.arena_high_water;
    total.arena_resets = r.stats.arena_resets;
    ++parses;
  }
  printf("--- parse stats (%zu cold parses) ---\n", parses);
  printf("edges created   : %zu\n", total.edges_created);
  printf("dedup hits      : %zu\n", total.dedup_hits);
  printf("cap drops       : %zu\n", total.cap_drops);
  printf("index probes    : %zu\n", total.index_probes);
  printf("beta reductions : %zu\n", total.beta_reductions);
  printf("beta steps      : %zu\n", total.beta_steps);
  printf("interned categories : %zu\n", ccg::category_interner_size());
  printf("interned terms      : %zu\n", ccg::term_interner_size());
  // Every Sage shares the process's one lexicon, so a second fresh Sage
  // over the same text rebuilds only terms that already exist.
  const std::size_t terms_before = ccg::term_interner_size();
  core::Sage fresh;
  fresh.annotate_non_actionable(annotations);
  fresh.process(text, proto);
  printf("terms interned by a second fresh Sage: %zu\n",
         ccg::term_interner_size() - terms_before);
  printf("chart arena reserved   : %zu bytes\n", total.arena_bytes_reserved);
  printf("chart arena high-water : %zu bytes\n", total.arena_high_water);
  printf("chart arena resets     : %zu\n", total.arena_resets);
}

void run(const char* name, const std::string& text, const std::string& proto,
         const std::vector<std::string>& annotations, bool verbose) {
  core::Sage s;
  s.annotate_non_actionable(annotations);
  core::ProtocolRun run;
  if (g_jobs > 0) {
    core::BatchOptions options;
    options.jobs = g_jobs;
    run = s.run_protocol_parallel(text, proto, options);
  } else {
    run = s.process(text, proto);
  }
  printf("=== %s ===\n", name);
  printf("sections=%zu instances=%zu\n", run.document.sections.size(), run.reports.size());
  printf("parsed=%zu zero=%zu ambiguous=%zu non-actionable=%zu functions=%zu\n",
         run.count(core::SentenceStatus::kParsed),
         run.count(core::SentenceStatus::kZeroForms),
         run.count(core::SentenceStatus::kAmbiguous),
         run.count(core::SentenceStatus::kNonActionable),
         run.functions.size());
  for (auto& r : run.reports) {
    bool interesting = r.status != core::SentenceStatus::kParsed &&
                       r.status != core::SentenceStatus::kNonActionable;
    if (verbose || interesting) {
      printf("[%s] base=%zu final=%zu ctx=%d \"%s\"\n",
             core::sentence_status_name(r.status).c_str(), r.base_forms,
             r.winnow.survivors.size(), (int)r.used_structural_context,
             r.sentence.text.c_str());
      if (verbose) {
        for (auto& u : r.unknown_tokens) printf("    UNKNOWN: %s\n", u.c_str());
        for (auto& f : r.winnow.survivors) printf("    LF: %s\n", f.to_string().c_str());
      } else {
        for (auto& u : r.unknown_tokens) printf("    UNKNOWN: %s\n", u.c_str());
        if (r.status == core::SentenceStatus::kAmbiguous)
          for (auto& f : r.winnow.survivors) printf("    LF: %s\n", f.to_string().c_str());
      }
    }
  }
  printf("discovered non-actionable: %zu\n", run.discovered_non_actionable.size());
  for (auto& d : run.discovered_non_actionable) printf("  DISC: %s\n", d.c_str());
  if (verbose) {
    for (auto& f : run.functions) printf("---- %s\n%s\n", f.name.c_str(), f.c_source.c_str());
  }
  if (g_parse_stats) {
    runtime::vm::reset_op_counts();
    runtime::vm::set_op_counting(true);
  }
  if (proto == "ICMP") exercise_icmp_backend(run);
  if (g_parse_stats) {
    runtime::vm::set_op_counting(false);
    dump_parse_stats(text, proto, annotations, s);
    dump_exec_stats();
    // The machine-readable snapshot (serve/stats.hpp): the same counters
    // a running sage_serve answers to a kStatsRequest, here for the
    // one-shot CLI so scripts never scrape the printf tables above.
    printf("--- stats snapshot ---\n%s",
           serve::StatsSnapshot::capture(s.parse_cache().get())
               .to_json()
               .c_str());
  }
}

// --serve-client [--port N] <job>...: submit jobs to a sage_serve
// daemon (with --port) or to an in-process server over the loopback
// transport (without). Job specs: parse:<corpus>, codegen:<corpus>,
// interop:<corpus>, fuzz:<proto>:<seed>:<iters>, stats.
int run_serve_client(int argc, char** argv, int i) {
  std::uint16_t port = 0;
  bool use_tcp = false;
  std::vector<serve::Frame> requests;
  for (; i < argc; ++i) {
    if (strcmp(argv[i], "--port") == 0) {
      if (i + 1 >= argc) {
        fprintf(stderr, "error: --port requires a value\n");
        return 2;
      }
      port = static_cast<std::uint16_t>(strtoul(argv[++i], nullptr, 10));
      use_tcp = true;
      continue;
    }
    std::string spec = argv[i];
    const auto colon = spec.find(':');
    const std::string verb = spec.substr(0, colon);
    const std::string rest =
        colon == std::string::npos ? "" : spec.substr(colon + 1);
    if (verb == "parse") {
      requests.push_back(
          serve::Client::make_request(serve::FrameKind::kParseRequest, rest));
    } else if (verb == "codegen") {
      requests.push_back(
          serve::Client::make_request(serve::FrameKind::kCodegenRequest, rest));
    } else if (verb == "interop") {
      requests.push_back(
          serve::Client::make_request(serve::FrameKind::kInteropRequest, rest));
    } else if (verb == "fuzz") {
      std::string proto = rest, seed = "1", iters = "100";
      const auto c1 = rest.find(':');
      if (c1 != std::string::npos) {
        proto = rest.substr(0, c1);
        const auto c2 = rest.find(':', c1 + 1);
        seed = rest.substr(c1 + 1, c2 == std::string::npos
                                       ? std::string::npos
                                       : c2 - c1 - 1);
        if (c2 != std::string::npos) iters = rest.substr(c2 + 1);
      }
      requests.push_back(serve::Client::make_request(
          serve::FrameKind::kFuzzRequest,
          "proto=" + proto + " seed=" + seed + " iters=" + iters));
    } else if (verb == "stats") {
      requests.push_back(
          serve::Client::make_request(serve::FrameKind::kStatsRequest, ""));
    } else {
      fprintf(stderr,
              "error: unknown job spec '%s' (expected parse:<corpus>, "
              "codegen:<corpus>, interop:<corpus>, "
              "fuzz:<proto>:<seed>:<iters>, stats)\n",
              spec.c_str());
      return 2;
    }
  }
  if (requests.empty()) {
    fprintf(stderr, "error: --serve-client needs at least one job spec\n");
    return 2;
  }

  std::optional<serve::Server> local_server;
  std::unique_ptr<serve::Transport> transport;
  if (use_tcp) {
    transport = serve::connect_socket(port);
  } else {
    local_server.emplace();
    auto [client_end, server_end] = serve::make_loopback_pair();
    local_server->serve_connection_async(std::move(server_end));
    transport = std::move(client_end);
  }
  serve::Client client(std::move(transport));
  const std::vector<serve::Frame> responses = client.submit(requests);
  bool all_ok = true;
  for (std::size_t k = 0; k < responses.size(); ++k) {
    const serve::Frame& r = responses[k];
    printf("[%zu] %s status=%s cache=%s time=%uus digest=%s\n%s", k,
           serve::frame_kind_name(r.kind),
           serve::job_status_name(r.status), r.cache_hit() ? "hit" : "miss",
           r.time_micros, serve::hex64(serve::result_digest(r)).c_str(),
           r.payload.c_str());
    if (!r.payload.empty() && r.payload.back() != '\n') printf("\n");
    if (r.status != serve::JobStatus::kOk) all_ok = false;
  }
  return all_ok ? 0 : 1;
}

// --serve-soak: the serve acceptance driver (docs/SERVICE.md). Replays
// a deterministic mixed-protocol job list against an in-process server
// and prints per-sample stats plus the digest summary line.
int run_serve_soak(int argc, char** argv, int i) {
  serve::SoakOptions options;
  bool quiet = false;
  for (; i < argc; ++i) {
    auto number = [&](const char* flag) -> std::optional<unsigned long> {
      if (i + 1 >= argc) {
        fprintf(stderr, "error: %s requires a value\n", flag);
        return std::nullopt;
      }
      char* end = nullptr;
      const unsigned long v = strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        fprintf(stderr, "error: %s expects a number, got '%s'\n", flag,
                argv[i]);
        return std::nullopt;
      }
      return v;
    };
    if (strcmp(argv[i], "--jobs") == 0) {
      const auto v = number("--jobs");
      if (!v) return 2;
      options.server_jobs = *v;
    } else if (strcmp(argv[i], "--total") == 0) {
      const auto v = number("--total");
      if (!v) return 2;
      options.total_jobs = *v;
    } else if (strcmp(argv[i], "--clients") == 0) {
      const auto v = number("--clients");
      if (!v) return 2;
      options.clients = *v;
    } else if (strcmp(argv[i], "--seed") == 0) {
      const auto v = number("--seed");
      if (!v) return 2;
      options.seed = *v;
    } else if (strcmp(argv[i], "--stats-every") == 0) {
      const auto v = number("--stats-every");
      if (!v) return 2;
      options.stats_every = *v;
    } else if (strcmp(argv[i], "--fuzz-iters") == 0) {
      const auto v = number("--fuzz-iters");
      if (!v) return 2;
      options.fuzz_iters = *v;
    } else if (strcmp(argv[i], "--quiet") == 0) {
      quiet = true;  // summary line only
    } else {
      fprintf(stderr, "error: unknown --serve-soak option '%s'\n", argv[i]);
      return 2;
    }
  }
  const serve::SoakReport report = serve::run_serve_soak(options);
  if (!quiet) {
    for (std::size_t s = 0; s < report.samples.size(); ++s) {
      const serve::StatsSnapshot& snap = report.samples[s];
      printf("sample %zu: jobs_ok=%llu arena_peak=%llu refusals=%llu\n", s,
             static_cast<unsigned long long>(snap.jobs_ok),
             static_cast<unsigned long long>(snap.sim_peak_arena_high_water),
             static_cast<unsigned long long>(snap.sim_clear_refusals));
    }
  }
  printf("%s\n", report.summary().c_str());
  return report.jobs_failed == 0 ? 0 : 1;
}

// --fuzz <protocol>: run the schema-driven differential fuzzer instead
// of the pipeline-diagnostic modes. Prints the deterministic verdict log
// (same seed → byte-identical output on any --jobs) and exits nonzero on
// any divergence or crash.
int run_fuzz(int argc, char** argv, int i) {
  fuzz::FuzzOptions options;
  if (i >= argc) {
    fprintf(stderr, "error: --fuzz requires a protocol (icmp|icmp6|igmp|ntp|bfd|udp|dhcp)\n");
    return 2;
  }
  options.protocol = argv[i++];
  const auto& known = fuzz::PacketGenerator::known_protocols();
  if (std::find(known.begin(), known.end(), options.protocol) == known.end()) {
    fprintf(stderr, "error: unknown fuzz protocol '%s' (expected icmp|icmp6|igmp|ntp|bfd|udp|dhcp)\n",
            options.protocol.c_str());
    return 2;
  }
  options.iterations = 1000;
  bool quiet = false;
  for (; i < argc; ++i) {
    auto number = [&](const char* flag) -> std::optional<unsigned long> {
      if (i + 1 >= argc) {
        fprintf(stderr, "error: %s requires a value\n", flag);
        return std::nullopt;
      }
      char* end = nullptr;
      const unsigned long v = strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        fprintf(stderr, "error: %s expects a number, got '%s'\n", flag, argv[i]);
        return std::nullopt;
      }
      return v;
    };
    if (strcmp(argv[i], "--seed") == 0) {
      const auto v = number("--seed");
      if (!v) return 2;
      options.seed = *v;
    } else if (strcmp(argv[i], "--iters") == 0) {
      const auto v = number("--iters");
      if (!v) return 2;
      options.iterations = *v;
    } else if (strcmp(argv[i], "--jobs") == 0) {
      const auto v = number("--jobs");
      if (!v) return 2;
      options.jobs = *v;
    } else if (strcmp(argv[i], "--faults") == 0) {
      if (i + 1 >= argc) {
        fprintf(stderr, "error: --faults requires a spec (e.g. 'loss=5,corrupt=10')\n");
        return 2;
      }
      std::string error;
      const auto plan = fuzz::FaultPlan::parse(argv[++i], &error);
      if (!plan) {
        fprintf(stderr, "error: bad --faults spec: %s\n", error.c_str());
        return 2;
      }
      options.faults = *plan;
    } else if (strcmp(argv[i], "--no-minimize") == 0) {
      options.minimize = false;
    } else if (strcmp(argv[i], "--exec-backend") == 0) {
      if (i + 1 >= argc) {
        fprintf(stderr, "error: --exec-backend requires tree|threaded\n");
        return 2;
      }
      const std::string b = argv[++i];
      if (b == "tree") {
        options.backend = runtime::vm::ExecBackend::kTree;
      } else if (b == "threaded") {
        options.backend = runtime::vm::ExecBackend::kThreaded;
      } else {
        fprintf(stderr, "error: unknown backend '%s' (expected tree|threaded)\n",
                b.c_str());
        return 2;
      }
    } else if (strcmp(argv[i], "--quiet") == 0) {
      quiet = true;  // summary + failures only (bench/CI wrapper use)
    } else {
      fprintf(stderr, "error: unknown --fuzz option '%s'\n", argv[i]);
      return 2;
    }
  }

  const fuzz::DifferentialFuzzer fuzzer(options);
  const fuzz::FuzzReport report = fuzzer.run();
  if (!quiet) {
    for (const auto& line : report.log) printf("%s\n", line.c_str());
  }
  printf("%s\n", report.summary().c_str());
  for (const auto& failure : report.failures) {
    printf("FAILURE %s: %s\n", fuzz::verdict_name(failure.verdict),
           failure.detail.c_str());
    if (!failure.minimized.empty()) {
      printf("  minimized (%zu bytes):", failure.minimized.size());
      for (const auto b : failure.minimized) printf(" %02x", b);
      printf("\n");
    }
  }
  return report.clean() ? 0 : 1;
}

// --soak <topology>: run the traffic-mix soak driver on a generated
// topology (star|fat-tree|random). Prints the deterministic per-session
// log plus a one-line report whose digest is independent of --jobs.
int run_soak(int argc, char** argv, int i) {
  sim::SoakOptions options;
  if (i >= argc) {
    fprintf(stderr, "error: --soak requires a topology (star|fat-tree|random)\n");
    return 2;
  }
  const std::string kind = argv[i++];
  if (kind == "star") {
    options.topology.kind = sim::TopologyKind::kStar;
  } else if (kind == "fat-tree") {
    options.topology.kind = sim::TopologyKind::kFatTree;
  } else if (kind == "random") {
    options.topology.kind = sim::TopologyKind::kRandom;
  } else {
    fprintf(stderr, "error: unknown topology '%s' (expected star|fat-tree|random)\n",
            kind.c_str());
    return 2;
  }
  bool quiet = false;
  for (; i < argc; ++i) {
    auto number = [&](const char* flag) -> std::optional<unsigned long> {
      if (i + 1 >= argc) {
        fprintf(stderr, "error: %s requires a value\n", flag);
        return std::nullopt;
      }
      char* end = nullptr;
      const unsigned long v = strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        fprintf(stderr, "error: %s expects a number, got '%s'\n", flag, argv[i]);
        return std::nullopt;
      }
      return v;
    };
    if (strcmp(argv[i], "--hosts") == 0) {
      const auto v = number("--hosts");
      if (!v) return 2;
      options.topology.hosts = *v;
    } else if (strcmp(argv[i], "--sessions") == 0) {
      const auto v = number("--sessions");
      if (!v) return 2;
      options.sessions = *v;
    } else if (strcmp(argv[i], "--seed") == 0) {
      const auto v = number("--seed");
      if (!v) return 2;
      options.seed = *v;
      options.topology.seed = *v;
    } else if (strcmp(argv[i], "--jobs") == 0) {
      const auto v = number("--jobs");
      if (!v) return 2;
      options.jobs = *v;
    } else if (strcmp(argv[i], "--quiet") == 0) {
      quiet = true;  // report line only (CI/bench wrapper use)
    } else {
      fprintf(stderr, "error: unknown --soak option '%s'\n", argv[i]);
      return 2;
    }
  }
  const sim::SoakReport report = sim::run_soak(options);
  if (!quiet) {
    for (const auto& line : report.log) printf("%s\n", line.c_str());
  }
  printf("%s\n", report.summary().c_str());
  return 0;
}

int main(int argc, char** argv) {
  // usage: sage_debug [icmp|icmp-rev|icmp6|icmp6-rev|igmp|ntp|bfd] [-v]
  //                   [--jobs N] [--parse-stats] [--dump-schema]
  //                   [--exec-backend B]
  //        sage_debug --fuzz <protocol> [--seed N] [--iters M] [--jobs N]
  //                   [--faults SPEC] [--no-minimize] [--exec-backend B]
  //                   [--quiet]
  //        sage_debug --soak <topology> [--hosts N] [--sessions M] [--seed N]
  //                   [--jobs N] [--quiet]
  //        sage_debug --serve-client [--port N] <job>...
  //        sage_debug --serve-soak [--total N] [--clients N] [--jobs N]
  //                   [--seed N] [--stats-every N] [--fuzz-iters N] [--quiet]
  bool verbose = false;
  std::string which = "icmp";
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--fuzz") == 0) {
      return run_fuzz(argc, argv, i + 1);
    } else if (strcmp(argv[i], "--soak") == 0) {
      return run_soak(argc, argv, i + 1);
    } else if (strcmp(argv[i], "--serve-client") == 0) {
      return run_serve_client(argc, argv, i + 1);
    } else if (strcmp(argv[i], "--serve-soak") == 0) {
      return run_serve_soak(argc, argv, i + 1);
    } else if (strcmp(argv[i], "-v") == 0) {
      verbose = true;
    } else if (strcmp(argv[i], "--parse-stats") == 0) {
      g_parse_stats = true;
    } else if (strcmp(argv[i], "--dump-schema") == 0) {
      fputs(net::schema::SchemaRegistry::instance().dump().c_str(), stdout);
      return 0;
    } else if (strcmp(argv[i], "--exec-backend") == 0) {
      if (i + 1 >= argc) {
        fprintf(stderr, "error: --exec-backend requires tree|threaded\n");
        return 2;
      }
      const std::string b = argv[++i];
      if (b == "tree") {
        g_backend = runtime::vm::ExecBackend::kTree;
      } else if (b == "threaded") {
        g_backend = runtime::vm::ExecBackend::kThreaded;
      } else {
        fprintf(stderr, "error: unknown backend '%s' (expected tree|threaded)\n",
                b.c_str());
        return 2;
      }
    } else if (strcmp(argv[i], "--jobs") == 0) {
      if (i + 1 >= argc) {
        fprintf(stderr, "error: --jobs requires a value\n");
        return 2;
      }
      char* end = nullptr;
      g_jobs = static_cast<std::size_t>(strtoul(argv[++i], &end, 10));
      if (end == argv[i] || *end != '\0') {
        fprintf(stderr, "error: --jobs expects a number, got '%s'\n", argv[i]);
        return 2;
      }
    } else {
      which = argv[i];
    }
  }
  if (which == "icmp")
    run("ICMP original", corpus::rfc792_original(), "ICMP", corpus::icmp_non_actionable_annotations(), verbose);
  else if (which == "icmp-rev")
    run("ICMP revised", corpus::rfc792_revised(), "ICMP", corpus::icmp_non_actionable_annotations(), verbose);
  else if (which == "icmp6")
    run("ICMPv6 original", corpus::rfc4443_original(), "ICMP6", corpus::icmp6_non_actionable_annotations(), verbose);
  else if (which == "icmp6-rev")
    run("ICMPv6 revised", corpus::rfc4443_revised(), "ICMP6", corpus::icmp6_non_actionable_annotations(), verbose);
  else if (which == "igmp")
    run("IGMP", corpus::rfc1112_appendix_i(), "IGMP", corpus::igmp_non_actionable_annotations(), verbose);
  else if (which == "ntp")
    run("NTP", corpus::rfc1059_appendices(), "NTP", corpus::ntp_non_actionable_annotations(), verbose);
  else if (which == "bfd") {
    std::string text = "BFD State Management\n\n   Description\n\n";
    for (auto& s : corpus::bfd_state_sentences()) text += "      " + s + "\n";
    run("BFD", text, "BFD", {}, verbose);
  } else {
    fprintf(stderr, "error: unknown corpus '%s' (expected "
            "icmp|icmp-rev|icmp6|icmp6-rev|igmp|ntp|bfd)\n",
            which.c_str());
    return 2;
  }
  return 0;
}
