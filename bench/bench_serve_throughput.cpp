// Serve daemon throughput (not a paper artifact).
//
// Measures jobs/second for the same mixed parse+codegen batch in two
// configurations:
//   * one-shot: every job pays a cold process — a fresh Server (empty
//     pipeline cache, empty parse cache) executing exactly one job,
//     which is what `sage_debug <corpus>` costs per invocation,
//   * warm daemon: one Server with a warmed session pipeline cache,
//     batch submitted through a loopback Client, at 1/2/4/8 workers.
//
// Framing (same as BENCH_fuzz_throughput): most of the win comes from
// the session caches — each corpus' pipeline runs and compiles once,
// then every later job is a hash-lookup. Thread parallelism adds at most
// what the host's CPU count allows; the bench prints and records
// std::thread::hardware_concurrency() so a reader can tell which. The
// per-worker rows also show the determinism contract holds: every
// configuration's response digests must equal the one-shot run's.
//
// Results are written to BENCH_serve_throughput.json. Exit is nonzero if
// determinism breaks or the warm daemon at 4 workers is below 3x
// one-shot throughput.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

using namespace sage;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The benchmark batch: every corpus, parse + codegen, several rounds —
/// the repeated-query workload a daemon exists for.
std::vector<serve::Frame> batch() {
  std::vector<serve::Frame> jobs;
  for (int round = 0; round < 5; ++round) {
    for (const char* corpus : {"icmp", "icmp-orig", "igmp", "ntp", "bfd"}) {
      jobs.push_back(serve::Client::make_request(
          serve::FrameKind::kParseRequest, corpus));
      jobs.push_back(serve::Client::make_request(
          serve::FrameKind::kCodegenRequest, corpus));
    }
  }
  return jobs;
}

std::uint64_t fold_digests(const std::vector<serve::Frame>& responses) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& response : responses) {
    h = serve::fnv1a_str(serve::hex64(serve::result_digest(response)), h);
  }
  return h;
}

}  // namespace

int main() {
  benchutil::title("Serve throughput",
                   "mixed parse+codegen jobs, one-shot CLI vs warm daemon");

  const std::vector<serve::Frame> jobs = batch();
  char buf[160];
  benchutil::row("hardware threads",
                 std::to_string(std::thread::hardware_concurrency()));

  // One-shot baseline: a cold Server per job — the pipeline re-derived
  // every time, as each `sage_debug` invocation pays it.
  const double oneshot_start = now_ms();
  std::vector<serve::Frame> oneshot_responses;
  oneshot_responses.reserve(jobs.size());
  for (const auto& job : jobs) {
    serve::Server cold({.jobs = 1});
    oneshot_responses.push_back(cold.execute(job));
  }
  const double oneshot_ms = now_ms() - oneshot_start;
  const std::uint64_t expected = fold_digests(oneshot_responses);
  const double oneshot_jps = 1000.0 * jobs.size() / oneshot_ms;

  std::snprintf(buf, sizeof buf, "%8.1f jobs/s  (%zu jobs in %.0f ms)",
                oneshot_jps, jobs.size(), oneshot_ms);
  benchutil::row("one-shot (cold pipeline per job)", buf);
  benchutil::rule();

  struct Point {
    std::size_t workers;
    double jps;
    double speedup;
    bool identical;
  };
  std::vector<Point> points;
  bool all_ok = true;

  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    serve::Server server({.jobs = workers});
    // Warm the session caches outside the timed region: first touch of
    // each corpus builds + compiles its pipeline once per session.
    for (const char* corpus : {"icmp", "icmp-orig", "igmp", "ntp", "bfd"}) {
      server.execute(serve::Client::make_request(
          serve::FrameKind::kParseRequest, corpus));
    }

    auto [client_end, server_end] = serve::make_loopback_pair();
    server.serve_connection_async(std::move(server_end));
    serve::Client client(std::move(client_end));

    const double start = now_ms();
    const std::vector<serve::Frame> responses = client.submit(jobs);
    const double ms = now_ms() - start;

    const bool identical = fold_digests(responses) == expected;
    const double jps = 1000.0 * jobs.size() / ms;
    const double speedup = jps / oneshot_jps;
    points.push_back({workers, jps, speedup, identical});
    all_ok = all_ok && identical;

    std::snprintf(buf, sizeof buf, "%8.1f jobs/s   %7.1fx%s", jps, speedup,
                  identical ? "" : "  DIGESTS DIVERGED");
    benchutil::row("warm daemon, " + std::to_string(workers) + " worker(s)",
                   buf);
  }

  benchutil::rule();
  const double speedup_at_4 = points[2].speedup;
  const bool gate = speedup_at_4 >= 3.0;
  all_ok = all_ok && gate;
  std::snprintf(buf, sizeof buf,
                "%.1fx at 4 workers (gate: >= 3x vs one-shot)", speedup_at_4);
  benchutil::row(gate ? "speedup gate met" : "SPEEDUP GATE MISSED", buf);
  benchutil::row("determinism contract",
                 all_ok ? "response digests identical everywhere"
                        : "see rows above");

  FILE* json = std::fopen("BENCH_serve_throughput.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    std::fprintf(json,
                 "  \"workload\": \"%zu mixed parse+codegen jobs over 5 "
                 "corpora\",\n",
                 jobs.size());
    std::fprintf(json, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(json,
                 "  \"note\": \"speedup is session-cache amortization "
                 "(pipeline + handler compilation once per corpus) plus "
                 "thread parallelism bounded by hardware_concurrency\",\n");
    std::fprintf(json, "  \"oneshot_jobs_per_s\": %.1f,\n", oneshot_jps);
    std::fprintf(json, "  \"warm_daemon\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& p = points[i];
      std::fprintf(json,
                   "    {\"workers\": %zu, \"jobs_per_s\": %.1f, "
                   "\"speedup_vs_oneshot\": %.1f, \"identical\": %s}%s\n",
                   p.workers, p.jps, p.speedup,
                   p.identical ? "true" : "false",
                   i + 1 == points.size() ? "" : ",");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"speedup_gate_3x_at_4_workers\": %s\n",
                 gate ? "true" : "false");
    std::fprintf(json, "}\n");
    std::fclose(json);
    benchutil::row("written", "BENCH_serve_throughput.json");
  }
  return all_ok ? 0 : 1;
}
