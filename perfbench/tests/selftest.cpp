// Tests of the benchmark's own checks. Every workload runs in a short
// mode: clean, its checks must pass; with each deliberate output fault,
// the check that guards that output must fail. Also pins that traced
// runs report only catalogued per-layer metrics.
//
//   perfbench_selftest            (or: python3 perfbench/run.py --selftest)
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

struct Workload {
  const char* name;
  std::function<Result(const Options&)> run;
  double short_seconds;
};

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

Result run(const Workload& w, const std::string& fault, bool trace) {
  Options o;
  o.workload = w.name;
  o.seed = 7;
  o.seconds = w.short_seconds;
  o.trace = trace;
  o.fault = fault;
  return w.run(o);
}

void check_clean(const Workload& w, bool trace) {
  const Result r = run(w, "", trace);
  std::string detail = std::string(w.name) + (trace ? " traced" : "") +
                       ": clean short run passes its checks";
  if (!r.errors.empty()) detail += " (" + r.errors[0] + ")";
  expect(r.correct && r.failed == 0 && r.attempted > 0, detail);
  std::set<std::string> catalog;
  for (const auto& [name, unit] : perfbench::per_layer_catalog()) catalog.insert(name);
  for (const auto& [name, metric] : r.per_layer) {
    expect(catalog.count(name) == 1, std::string(w.name) + ": per-layer metric " +
                                         name + " is catalogued");
  }
  if (!trace) {
    for (const char* m : {"ops_per_s", "setup_s", "peak_rss_mib"}) {
      const auto it = r.end_to_end.find(m);
      expect(it != r.end_to_end.end() && it->second.value > 0.0,
             std::string(w.name) + ": reports " + m);
    }
  }
}

void check_fault(const Workload& w, const std::string& fault,
                 const std::string& check_id, bool trace = false) {
  const Result r = run(w, fault, trace);
  expect(!r.correct && r.failed_check(check_id),
         std::string(w.name) + ": fault '" + fault + "' is caught by check " +
             check_id);
}

}  // namespace

int main() {
  perfbench::mark_process_start();
  const Workload spec{"spec_compile", perfbench::run_spec_compile, 0.34};
  const Workload revise{"revise_loop", perfbench::run_revise_loop, 0.34};
  const Workload interop{"interop_traffic", perfbench::run_interop_traffic, 0.2};
  const Workload daemon{"daemon_jobs", perfbench::run_daemon_jobs, 0.2};

  for (const Workload* w : {&spec, &revise, &interop, &daemon}) {
    check_clean(*w, false);
    check_clean(*w, true);
  }

  // spec_compile: S1 ambiguity counts, S2 one report per sentence with
  // one final form, S3 Appendix-A interop, S5 staged replay agreement.
  check_fault(spec, "ambiguous_off_by_one", "S1");
  check_fault(spec, "drop_report", "S2");
  check_fault(spec, "flip_reply_byte", "S3");
  check_fault(spec, "staged_form", "S5", /*trace=*/true);

  // revise_loop: R1 count rules, R2 final text, R3 cached == cache-off.
  check_fault(revise, "ambiguous_off_by_one", "R1");
  check_fault(revise, "change_text", "R2");
  check_fault(revise, "drop_report", "R3");

  // interop_traffic: I1 twin capture, I2 ping model, I3 traceroute hops,
  // I4 ICMPv6 reference, I5 replay split.
  check_fault(interop, "flip_reply_byte", "I1");
  check_fault(interop, "flip_reply_byte", "I2");
  check_fault(interop, "drop_hop", "I3");
  check_fault(interop, "flip_v6_byte", "I4");
  check_fault(interop, "corrupt_trigger_reply", "I5", /*trace=*/true);

  // daemon_jobs: D1 status ok, D2 fuzz verdicts, D3 payloads, D4 digest.
  check_fault(daemon, "bad_job", "D1");
  check_fault(daemon, "fuzz_divergent", "D2");
  check_fault(daemon, "change_payload", "D3");
  check_fault(daemon, "change_payload", "D4");

  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "OK" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}
