// Shared plumbing of the perfbench harness: options, the seeded input
// generator, the clock-compensated timer, the span tracer, allocation
// counting, and the result record every workload fills in.
//
// Timing model (README.md, "Holding steady on a drifting host"): the
// host's speed moves by up to 2x within a minute, through clock steps
// and through co-tenants sharing cores. Right before every timed
// repetition a fixed calibration kernel runs; the repetition's wall time
// is scaled by the kernel's nominal time over its measured time, so every
// reported time is in seconds on a nominal host. Raw wall times are kept
// alongside for the README.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Options and results
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Nominal seconds of timed work. Every workload turns this into a
  /// fixed op count (seconds x the workload's nominal rate); it is never
  /// a time box.
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace-event JSON ("" = none).
  std::string trace_out;
  /// Test-only output corruption (tests/selftest.cpp): names one
  /// deliberate fault the workload injects into an output before its
  /// checks see it. Empty in every real run.
  std::string fault;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failed checks, each prefixed with its check id ("S1: ...").
  std::vector<std::string> errors;
  /// End-to-end metrics (printed with --trace 0).
  std::map<std::string, Metric> end_to_end;
  /// Per-layer metrics (printed with --trace 1).
  std::map<std::string, Metric> per_layer;
  /// Human-readable lines printed before the result (raw rates,
  /// calibration record, reference figures for the README).
  std::vector<std::string> notes;

  void fail(const std::string& check_id, const std::string& detail);
  bool failed_check(const std::string& check_id) const;
  void note(const std::string& line) { notes.push_back(line); }
};

/// Every workload is a function of the options alone.
Result run_spec_compile(const Options& options);
Result run_revise_loop(const Options& options);
Result run_interop_traffic(const Options& options);
Result run_daemon_jobs(const Options& options);

/// Every per-layer metric any workload reports, with its unit. A traced
/// run prints all of them; a layer the workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

/// SplitMix64: the benchmark's only source of input randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ULL + 1) {}
  std::uint64_t next();
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);
std::uint64_t fnv1a_bytes(const std::vector<std::uint8_t>& bytes,
                          std::uint64_t h = 0xcbf29ce484222325ULL);

// ---------------------------------------------------------------------------
// Clock-compensated timing
// ---------------------------------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed piece of work: raw and compensated nanoseconds.
struct RepTime {
  double raw_ns = 0.0;
  double comp_ns = 0.0;
};

/// The calibration kernel and the record of every factor it produced.
class Calibrator {
 public:
  /// Time one piece of a repetition. The kernel runs right before the
  /// piece (reusing the previous piece's closing run) and right after
  /// it; the piece's wall time is scaled by the mean of the two factors.
  /// The kernel's own time is not part of the piece.
  RepTime timed(const std::function<void()>& work);

  /// Run the kernel (best of three runs of ~30 us) and return the
  /// compensation factor nominal / measured for the work that follows.
  double factor();

  double min_factor() const { return min_factor_; }
  double max_factor() const { return max_factor_; }
  std::uint64_t samples() const { return samples_; }
  /// Wall nanoseconds spent inside the kernel.
  double kernel_ns() const { return kernel_ns_; }

 private:
  double min_factor_ = 0.0;
  double max_factor_ = 0.0;
  std::uint64_t samples_ = 0;
  double kernel_ns_ = 0.0;
  double last_factor_ = 0.0;  // closing factor of the previous piece
};

/// Set-up phases from process start to the first timed op. Each phase is
/// compensated like a timed piece (kernel before and after it); the
/// phase times are summed into setup_s. Per-phase times become the
/// `setup.<phase>_ms` metrics.
class SetupClock {
 public:
  explicit SetupClock(Calibrator* calib);
  /// Close the running phase (if any) and open `name`.
  void phase(const std::string& name);
  /// Close the running phase; returns the compensated total in seconds.
  double finish();
  const std::vector<std::pair<std::string, double>>& phases_ms() const {
    return phases_ms_;
  }
  double raw_total_s() const { return raw_total_ns_ * 1e-9; }

 private:
  void close();
  Calibrator* calib_;
  std::string current_;
  std::int64_t start_ns_ = 0;
  double factor_ = 1.0;
  double boot_ns_ = 0.0;  // process start to the first phase
  double comp_total_ns_ = 0.0;
  double raw_total_ns_ = 0.0;
  std::vector<std::pair<std::string, double>> phases_ms_;
};

/// The timed region of a run: one entry per group, a group being a fixed
/// unit of work that is identical in every run (a pass over all corpora,
/// a revision session, a block of traffic rounds, a job batch).
struct TimedRegion {
  std::vector<RepTime> groups;
  double ops_per_group = 0.0;
  std::int64_t wall_ns = 0;  // wall time of the whole region
};

/// Fill ops_per_s, setup_s and peak_rss_mib, the setup.<phase>_ms
/// per-layer metrics, and the calibration and raw-rate notes. When the
/// run is traced, ops_per_s is reported as a note (the traced rate, for
/// the tracing overhead) and not as a metric.
void report_end_to_end(Result& result, const Options& options,
                       const TimedRegion& region, const SetupClock& setup,
                       double setup_s, const Calibrator& calib);

/// Nanoseconds since main() was entered (set-up starts here).
std::int64_t process_start_ns();
void mark_process_start();

// ---------------------------------------------------------------------------
// Summary statistics
// ---------------------------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

/// Peak resident set size of this process, in MiB (VmHWM).
double peak_rss_mib();

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// In-memory span recorder. Spans nest per thread; each records its
/// parent, and on close adds its duration to the parent's child time so
/// a layer's self time (duration minus child spans) is exact. Aggregates
/// are kept for every span; the first kMaxEvents spans are also kept as
/// events and written as Chrome trace-event JSON at exit.
class Tracer {
 public:
  static constexpr std::size_t kMaxEvents = 50000;

  struct Aggregate {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };

  static Tracer& instance();
  bool enabled() const { return enabled_; }
  void enable(bool on) { enabled_ = on; }

  void begin(const char* name);
  void end();

  const Aggregate& aggregate(const std::string& name) const;
  /// Write the kept events as Chrome trace-event JSON.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    std::int64_t start_ns;
    double child_ns;
    int parent_event;  // index in events_, -1 when not kept
    int event;         // index in events_, -1 when not kept
  };
  struct Event {
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    int parent;
  };

  bool enabled_ = false;
  Aggregate& slot(const char* name);
  // Span names are string literals: looked up by pointer, few of them.
  std::vector<std::pair<const char*, Aggregate>> aggregates_;
  std::vector<Event> events_;
  std::vector<Open> stack_;  // spans are recorded from one thread only
};

/// RAII span; a no-op unless tracing is enabled.
class Span {
 public:
  explicit Span(const char* name) : on_(Tracer::instance().enabled()) {
    if (on_) Tracer::instance().begin(name);
  }
  ~Span() {
    if (on_) Tracer::instance().end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

// ---------------------------------------------------------------------------
// Allocation counting (operator new replaced in alloc_count.cpp)
// ---------------------------------------------------------------------------

/// Calls to operator new made by the calling thread so far.
std::uint64_t thread_allocations();

}  // namespace perfbench
