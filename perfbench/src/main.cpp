// perfbench — one SAGE workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]
//
// Prints human-readable notes, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload spec_compile|revise_loop|"
               "interop_traffic|daemon_jobs --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n");
}

/// Shortest decimal that round-trips the double: all measured digits.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void print_metrics(const std::map<std::string, perfbench::Metric>& metrics) {
  std::printf("\"metrics\": {");
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
    first = false;
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::mark_process_start();
  perfbench::Options options;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      usage();
      return 2;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "error: bad number '%s' for %s\n", value.c_str(),
                   arg.c_str());
      return 2;
    }
  }
  if (!have_trace || !(options.seconds > 0.0)) {
    usage();
    return 2;
  }

  perfbench::Result result;
  if (options.workload == "spec_compile") {
    result = perfbench::run_spec_compile(options);
  } else if (options.workload == "revise_loop") {
    result = perfbench::run_revise_loop(options);
  } else if (options.workload == "interop_traffic") {
    result = perfbench::run_interop_traffic(options);
  } else if (options.workload == "daemon_jobs") {
    result = perfbench::run_daemon_jobs(options);
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 options.workload.c_str());
    usage();
    return 2;
  }

  for (const auto& line : result.notes) std::printf("# %s\n", line.c_str());
  for (const auto& e : result.errors) {
    std::printf("# CHECK FAILED %s\n", e.c_str());
  }
  std::map<std::string, perfbench::Metric> metrics;
  if (options.trace) {
    for (const auto& [name, unit] : perfbench::per_layer_catalog()) {
      const auto it = result.per_layer.find(name);
      metrics[name] = perfbench::Metric{
          it == result.per_layer.end() ? 0.0 : it->second.value, unit};
    }
  } else {
    metrics = result.end_to_end;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  print_metrics(metrics);
  std::printf("}\n");
  std::fflush(stdout);
  return 0;
}
