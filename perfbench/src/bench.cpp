#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

void Result::fail(const std::string& check_id, const std::string& detail) {
  correct = false;
  // One failing check can fire thousands of times; keep the first few.
  std::size_t same = 0;
  for (const auto& e : errors) same += e.rfind(check_id + ":", 0) == 0;
  if (same < 5) errors.push_back(check_id + ": " + detail);
}

bool Result::failed_check(const std::string& check_id) const {
  for (const auto& e : errors) {
    if (e.rfind(check_id + ":", 0) == 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a_bytes(const std::vector<std::uint8_t>& bytes,
                          std::uint64_t h) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Calibration kernel
// ---------------------------------------------------------------------------

namespace {

// The calibration kernel is benchmark code: eight independent
// multiply-add chains in registers, no memory traffic. Being bound by
// execution-port throughput, it slows with clock steps and when a busy
// co-tenant shares the core. On the 4-core host the README's figures
// come from, SAGE's pipeline time moved by up to 2x within a minute; a
// single dependent chain (latency-bound) saw only the clock steps and
// left a 10-second spread of 15%, this kernel left 5-8% (README.md,
// "Calibration record"). Memory-walking kernels tracked no better once
// their own cache state was controlled for, and made the factor depend
// on what the workload left in the caches.
constexpr int kIlpSteps = 12000;

__attribute__((noinline)) std::uint64_t ilp_chains(std::uint64_t x) {
  std::uint64_t a = x, b = x + 1, c = x + 2, d = x + 3;
  std::uint64_t e = x + 4, f = x + 5, g = x + 6, h = x + 7;
  for (int i = 0; i < kIlpSteps; ++i) {
    a = a * 3 + b;
    b = b * 5 + c;
    c = c * 7 + d;
    d = d * 9 + e;
    e = e * 11 + f;
    f = f * 13 + g;
    g = g * 15 + h;
    h = h * 17 + a;
    asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e), "+r"(f),
                 "+r"(g), "+r"(h));
  }
  return a ^ b ^ c ^ d ^ e ^ f ^ g ^ h;
}

// The kernel's time on the nominal host: its median over 60 s on the
// 4-core host the README's reference figures come from. A constant of
// the benchmark, so compensated times of two commits share one unit.
constexpr double kNominalKernelNs = 28000.0;

std::uint64_t g_sink = 1;

double measure_kernel_ns() {
  const std::int64_t t0 = now_ns();
  g_sink = ilp_chains(g_sink);
  return static_cast<double>(now_ns() - t0);
}

}  // namespace

double Calibrator::factor() {
  const std::int64_t t0 = now_ns();
  // Best of three: an interrupt inflates one run, not all three.
  double best = measure_kernel_ns();
  for (int i = 0; i < 2; ++i) best = std::min(best, measure_kernel_ns());
  kernel_ns_ += static_cast<double>(now_ns() - t0);
  const double f = kNominalKernelNs / best;
  if (samples_ == 0) {
    min_factor_ = max_factor_ = f;
  } else {
    min_factor_ = std::min(min_factor_, f);
    max_factor_ = std::max(max_factor_, f);
  }
  ++samples_;
  return f;
}

RepTime Calibrator::timed(const std::function<void()>& work) {
  if (last_factor_ == 0.0) last_factor_ = factor();
  const std::int64_t t0 = now_ns();
  work();
  const double raw = static_cast<double>(now_ns() - t0);
  const double after = factor();
  const RepTime t{raw, raw * 0.5 * (last_factor_ + after)};
  last_factor_ = after;
  return t;
}


namespace {
std::int64_t g_process_start_ns = 0;
}  // namespace

void mark_process_start() { g_process_start_ns = now_ns(); }
std::int64_t process_start_ns() { return g_process_start_ns; }

SetupClock::SetupClock(Calibrator* calib) : calib_(calib) {}

void SetupClock::close() {
  if (current_.empty()) return;
  const double raw = static_cast<double>(now_ns() - start_ns_);
  // Like a timed piece: the mean of the factors before and after.
  const double f = 0.5 * (factor_ + calib_->factor());
  raw_total_ns_ += raw + boot_ns_;
  comp_total_ns_ += (raw + boot_ns_) * f;
  phases_ms_.emplace_back(current_, raw * f * 1e-6);
  boot_ns_ = 0.0;
  current_.clear();
}

void SetupClock::phase(const std::string& name) {
  close();
  // The kernel's own time is not set-up work.
  factor_ = calib_->factor();
  current_ = name;
  start_ns_ = now_ns();
  if (phases_ms_.empty()) {
    // The first phase also covers process start-up up to here.
    const std::int64_t boot = process_start_ns();
    if (boot > 0 && boot < start_ns_) boot_ns_ = static_cast<double>(start_ns_ - boot);
  }
}

double SetupClock::finish() {
  close();
  return comp_total_ns_ * 1e-9;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void report_end_to_end(Result& result, const Options& options,
                       const TimedRegion& region, const SetupClock& setup,
                       double setup_s, const Calibrator& calib) {
  std::vector<double> comp;
  std::vector<double> raw;
  for (const RepTime& g : region.groups) {
    comp.push_back(g.comp_ns);
    raw.push_back(g.raw_ns);
  }
  const double ops_per_s = region.ops_per_group / (median(comp) * 1e-9);
  const double raw_ops_per_s = region.ops_per_group / (median(raw) * 1e-9);
  const double rss = peak_rss_mib();
  if (options.trace) {
    result.note("traced ops_per_s (compensated) = " + std::to_string(ops_per_s));
  } else {
    result.end_to_end["ops_per_s"] = Metric{ops_per_s, "op/s"};
    result.end_to_end["setup_s"] = Metric{setup_s, "s"};
    result.end_to_end["peak_rss_mib"] = Metric{rss, "MiB"};
  }
  for (const auto& [phase, ms] : setup.phases_ms()) {
    result.per_layer["setup." + phase + "_ms"] = Metric{ms, "ms"};
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "groups=%zu ops/group=%.0f ops_per_s compensated=%.1f raw=%.1f "
                "setup_s compensated=%.4f raw=%.4f peak_rss_mib=%.1f",
                region.groups.size(), region.ops_per_group, ops_per_s,
                raw_ops_per_s, setup_s, setup.raw_total_s(), rss);
  result.note(line);
  std::snprintf(line, sizeof(line),
                "calibration: factor min=%.4f max=%.4f over %llu samples; "
                "kernel share of timed region=%.2f%%",
                calib.min_factor(), calib.max_factor(),
                static_cast<unsigned long long>(calib.samples()),
                region.wall_ns > 0 ? 100.0 * calib.kernel_ns() /
                                         static_cast<double>(region.wall_ns)
                                   : 0.0);
  result.note(line);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::begin(const char* name) {
  Open open{name, now_ns(), 0.0, stack_.empty() ? -1 : stack_.back().event, -1};
  if (events_.size() < kMaxEvents) {
    open.event = static_cast<int>(events_.size());
    events_.push_back(Event{name, open.start_ns, 0, open.parent_event});
  }
  stack_.push_back(open);
}

void Tracer::end() {
  const Open open = stack_.back();
  stack_.pop_back();
  const double dur = static_cast<double>(now_ns() - open.start_ns);
  Aggregate& agg = slot(open.name);
  ++agg.count;
  agg.total_ns += dur;
  agg.self_ns += dur - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (open.event >= 0) {
    events_[static_cast<std::size_t>(open.event)].dur_ns =
        static_cast<std::int64_t>(dur);
  }
}

Tracer::Aggregate& Tracer::slot(const char* name) {
  for (auto& [n, agg] : aggregates_) {
    if (n == name) return agg;
  }
  aggregates_.emplace_back(name, Aggregate{});
  return aggregates_.back().second;
}

const Tracer::Aggregate& Tracer::aggregate(const std::string& name) const {
  static const Aggregate kEmpty;
  for (const auto& [n, agg] : aggregates_) {
    if (name == n) return agg;
  }
  return kEmpty;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t base = events_.empty() ? 0 : events_.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", out);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                 "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", e.name,
                 static_cast<double>(e.start_ns - base) / 1000.0,
                 static_cast<double>(e.dur_ns) / 1000.0, i, e.parent);
  }
  std::fputs("],\"displayTimeUnit\":\"ns\"}\n", out);
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------------
// Per-layer metric catalog
// ---------------------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = [] {
    std::vector<std::pair<std::string, std::string>> c = {
        // spec_compile (staged replay)
        {"rfc.preprocess_us", "us"},
        {"nlp.chunk_us", "us"},
        {"ccg.parse_us", "us"},
        {"disambig.winnow_us", "us"},
        {"codegen.generate_us", "us"},
        {"codegen.lower_us", "us"},
        {"ccg.forms_per_sentence", "count"},
        {"disambig.kept_ratio", "ratio"},
        {"ccg.allocs_per_sentence", "count"},
        // spec_compile and revise_loop
        {"ccg.terms_interned_per_doc", "count"},
        // revise_loop
        {"ccg.cache_hit_ratio", "ratio"},
        {"core.rerun_parse_winnow_us", "us"},
        {"core.rerun_codegen_lower_us", "us"},
        // interop_traffic
        {"runtime.respond_ns", "ns"},
        {"sim.dispatch_ns_per_event", "ns"},
        {"sim.events_per_op", "count"},
        {"runtime.env_build_ns", "ns"},
        {"runtime.vm_exec_ns", "ns"},
        {"runtime.finish_reply_ns", "ns"},
        {"runtime.icmp6_respond_ns", "ns"},
        {"runtime.allocs_per_reply", "count"},
        {"codegen.program_bytes", "bytes"},
        // daemon_jobs
        {"serve.frame_encode_ns", "ns"},
        {"serve.frame_decode_ns", "ns"},
        {"serve.pipeline_hit_ratio", "ratio"},
        {"fuzz.case_us", "us"},
        {"serve.arena_peak_bytes", "bytes"},
    };
    for (const char* kind : {"parse", "codegen", "interop", "fuzz"}) {
      const std::string k(kind);
      c.emplace_back("serve.server_us." + k, "us");
      c.emplace_back("serve.roundtrip_p50_us." + k, "us");
      c.emplace_back("serve.roundtrip_p99_us." + k, "us");
      c.emplace_back("serve.queue_wait_us." + k, "us");
    }
    // Set-up phases of every workload.
    for (const char* phase :
         {"load_corpora", "first_touch", "sage_init", "cold_run", "compile_handlers",
          "build_topology", "make_traffic", "start_server", "warm_pipelines"}) {
      c.emplace_back(std::string("setup.") + phase + "_ms", "ms");
    }
    return c;
  }();
  return kCatalog;
}

}  // namespace perfbench
