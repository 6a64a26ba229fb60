// Parallel batch executor scaling (not a paper artifact).
//
// Measures end-to-end pipeline throughput (sentence instances per
// second) over the ICMP + BFD corpora:
//   * serial baseline: Sage::process with the parse cache disabled —
//     the pre-executor configuration, re-parsing everything per run;
//   * batch executor at 1/2/4/8 worker threads: BatchRunner with its
//     shared memoization cache, steady state (first iteration warms the
//     cache, exactly like the repeated runs the ablation benches do).
// Also asserts the determinism contract on every configuration: the
// parallel ProtocolRun signature must be byte-identical to serial.
//
// Results are written to BENCH_parallel_scaling.json in the working
// directory (EXPERIMENTS.md records a reference run).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/batch.hpp"
#include "core/sage.hpp"
#include "corpus/rfc5880.hpp"
#include "corpus/rfc792.hpp"

using namespace sage;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string bfd_text() {
  std::string text = "BFD State Management\n\n   Description\n\n";
  for (const auto& s : corpus::bfd_state_sentences()) text += "      " + s + "\n";
  return text;
}

std::vector<core::BatchJob> make_batch() {
  std::vector<core::BatchJob> batch;
  core::BatchJob icmp;
  icmp.name = "ICMP";
  icmp.rfc_text = corpus::rfc792_original();
  icmp.protocol = "ICMP";
  icmp.non_actionable = corpus::icmp_non_actionable_annotations();
  batch.push_back(std::move(icmp));
  core::BatchJob bfd;
  bfd.name = "BFD";
  bfd.rfc_text = bfd_text();
  bfd.protocol = "BFD";
  batch.push_back(std::move(bfd));
  return batch;
}

}  // namespace

int main() {
  benchutil::title("Parallel scaling",
                   "batch executor throughput, ICMP + BFD corpora");

  const auto batch = make_batch();
  constexpr int kIterations = 10;

  // Reference signatures from the serial, cache-free path.
  std::vector<std::string> reference;
  std::size_t sentences_per_pass = 0;
  for (const auto& job : batch) {
    core::Sage sage;
    sage.set_parse_cache(nullptr);
    sage.annotate_non_actionable(job.non_actionable);
    const auto run = sage.process(job.rfc_text, job.protocol, job.options);
    sentences_per_pass += run.reports.size();
    reference.push_back(core::protocol_run_signature(run));
  }

  // Serial baseline: fresh Sage per pass, no memoization.
  const double serial_start = now_ms();
  for (int i = 0; i < kIterations; ++i) {
    for (const auto& job : batch) {
      core::Sage sage;
      sage.set_parse_cache(nullptr);
      sage.annotate_non_actionable(job.non_actionable);
      (void)sage.process(job.rfc_text, job.protocol, job.options);
    }
  }
  const double serial_ms = (now_ms() - serial_start) / kIterations;
  const double serial_throughput =
      static_cast<double>(sentences_per_pass) / (serial_ms / 1000.0);

  benchutil::row("configuration", "ms/pass   sentences/s   speedup");
  benchutil::rule();
  char buf[128];
  std::snprintf(buf, sizeof buf, "%8.2f   %11.0f   %6.2fx", serial_ms,
                serial_throughput, 1.0);
  benchutil::row("serial, cache off", buf);

  struct Point {
    std::size_t jobs;
    double ms;
    double throughput;
    double hit_rate;
    bool identical;
  };
  std::vector<Point> points;

  for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
    core::BatchRunner runner(jobs);
    // Warmup pass: populates the shared cache and checks determinism.
    bool identical = true;
    for (const auto& result : runner.run(batch)) {
      std::size_t index = 0;
      for (; index < batch.size(); ++index) {
        if (batch[index].name == result.name) break;
      }
      if (core::protocol_run_signature(result.run) != reference[index]) {
        identical = false;
      }
    }
    const double start = now_ms();
    for (int i = 0; i < kIterations; ++i) {
      const auto results = runner.run(batch);
      for (const auto& result : results) {
        std::size_t index = 0;
        for (; index < batch.size(); ++index) {
          if (batch[index].name == result.name) break;
        }
        if (core::protocol_run_signature(result.run) != reference[index]) {
          identical = false;
        }
      }
    }
    const double ms = (now_ms() - start) / kIterations;
    const double throughput =
        static_cast<double>(sentences_per_pass) / (ms / 1000.0);
    const double hit_rate = runner.cache()->stats().hit_rate();
    points.push_back({jobs, ms, throughput, hit_rate, identical});

    std::snprintf(buf, sizeof buf, "%8.2f   %11.0f   %6.2fx  (%.0f%% hits%s)",
                  ms, throughput, throughput / serial_throughput,
                  hit_rate * 100.0, identical ? "" : ", OUTPUT DIVERGED");
    benchutil::row("executor, " + std::to_string(jobs) + " thread(s)", buf);
  }

  benchutil::rule();
  bool all_identical = true;
  for (const auto& p : points) all_identical = all_identical && p.identical;
  benchutil::row("determinism contract",
                 all_identical ? "byte-identical on every configuration"
                               : "VIOLATED");

  FILE* json = std::fopen("BENCH_parallel_scaling.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"workload\": \"ICMP+BFD, %zu sentences/pass\",\n",
                 sentences_per_pass);
    std::fprintf(json, "  \"iterations\": %d,\n", kIterations);
    std::fprintf(json, "  \"serial_ms_per_pass\": %.3f,\n", serial_ms);
    std::fprintf(json, "  \"serial_sentences_per_s\": %.0f,\n",
                 serial_throughput);
    std::fprintf(json, "  \"executor\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& p = points[i];
      std::fprintf(json,
                   "    {\"jobs\": %zu, \"ms_per_pass\": %.3f, "
                   "\"sentences_per_s\": %.0f, \"speedup\": %.2f, "
                   "\"cache_hit_rate\": %.3f, \"identical\": %s}%s\n",
                   p.jobs, p.ms, p.throughput,
                   p.throughput / serial_throughput, p.hit_rate,
                   p.identical ? "true" : "false",
                   i + 1 == points.size() ? "" : ",");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"deterministic\": %s\n",
                 all_identical ? "true" : "false");
    std::fprintf(json, "}\n");
    std::fclose(json);
    benchutil::row("written", "BENCH_parallel_scaling.json");
  }
  return all_identical ? 0 : 1;
}
