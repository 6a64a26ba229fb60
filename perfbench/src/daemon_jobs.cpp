// daemon_jobs — sage_serve answering a job stream.
//
// Op: one job answered. An in-process serve::Server with two pool
// workers listens on a 127.0.0.1 socket; one client connection keeps a
// fixed window of jobs in flight (a closed loop). The client, the
// connection thread and the two workers make four threads. Every batch
// has the same make-up: differential fuzz campaigns over all seven fuzz
// protocols (most of the server time), warm parse and codegen jobs on
// all five daemon corpora, interop jobs on the two ICMP corpora, and
// stats requests. The batch count is fixed by --seconds.
//
// Checks (untimed): every job returns status ok; fuzz campaigns report
// 0 divergent cases and 0 crashes; each parse or codegen payload equals
// what the benchmark renders itself from core::Sage::process on the
// same corpus; the first batch's jobs fold to the same result digest on
// a one-worker server.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "core/batch.hpp"
#include "core/sage.hpp"
#include "corpora.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace perfbench {

using namespace sage;

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kWindow = 8;
constexpr std::size_t kFuzzIterations = 40;
// Batches per nominal second of --seconds.
constexpr double kBatchesPerSecond = 40.0;

const char* const kFuzzProtocols[] = {"icmp", "icmp6", "igmp", "ntp",
                                      "bfd",  "udp",   "dhcp"};
const char* const kInteropCorpora[] = {"icmp", "icmp-orig"};

const char* kind_label(serve::FrameKind kind) {
  switch (kind) {
    case serve::FrameKind::kParseRequest: return "parse";
    case serve::FrameKind::kCodegenRequest: return "codegen";
    case serve::FrameKind::kInteropRequest: return "interop";
    case serve::FrameKind::kFuzzRequest: return "fuzz";
    default: return "stats";
  }
}

struct Job {
  serve::FrameKind kind;
  std::string payload;
};

struct Answer {
  serve::Frame response;
  double roundtrip_us = 0.0;
};

/// One batch, in a seeded order: 2 fuzz campaigns per protocol, 2 parse
/// and 2 codegen jobs per corpus, 2 interop jobs per ICMP corpus and 2
/// stats requests.
std::vector<Job> make_batch(Rng& rng, const std::vector<CorpusDoc>& corpora) {
  std::vector<Job> batch;
  for (const char* proto : kFuzzProtocols) {
    for (int i = 0; i < 2; ++i) {
      batch.push_back({serve::FrameKind::kFuzzRequest,
                       std::string("proto=") + proto +
                           " seed=" + std::to_string(1 + rng.below(1000000)) +
                           " iters=" + std::to_string(kFuzzIterations)});
    }
  }
  for (const auto& doc : corpora) {
    for (int i = 0; i < 2; ++i) {
      batch.push_back({serve::FrameKind::kParseRequest, doc.name});
      batch.push_back({serve::FrameKind::kCodegenRequest, doc.name});
    }
  }
  for (const char* corpus : kInteropCorpora) {
    for (int i = 0; i < 2; ++i) {
      batch.push_back({serve::FrameKind::kInteropRequest, corpus});
    }
  }
  for (int i = 0; i < 2; ++i) batch.push_back({serve::FrameKind::kStatsRequest, ""});
  rng.shuffle(batch);
  return batch;
}

/// The closed-loop client: keeps up to kWindow jobs in flight on one
/// connection and reassembles answers by job id.
class WindowClient {
 public:
  explicit WindowClient(std::unique_ptr<serve::Transport> transport)
      : transport_(std::move(transport)) {}

  /// Run `jobs` to completion with up to `window` in flight; answers are
  /// returned in job order. Returns false if the connection failed.
  bool run(const std::vector<Job>& jobs, std::vector<Answer>* answers,
           std::size_t window = kWindow) {
    answers->assign(jobs.size(), Answer{});
    std::map<std::uint32_t, std::pair<std::size_t, std::int64_t>> in_flight;
    std::size_t next = 0;
    std::size_t done = 0;
    while (done < jobs.size()) {
      while (next < jobs.size() && in_flight.size() < window) {
        serve::Frame request;
        request.kind = jobs[next].kind;
        request.job_id = next_id_++;
        request.payload = jobs[next].payload;
        std::vector<std::uint8_t> image;
        {
          Span span("serve.frame_encode");
          image = serve::encode_frame(request);
        }
        in_flight[request.job_id] = {next, now_ns()};
        if (!transport_->write_all(image.data(), image.size())) return false;
        ++next;
      }
      serve::Frame response;
      if (!read_frame(&response)) return false;
      const std::int64_t arrived = now_ns();
      const auto it = in_flight.find(response.job_id);
      if (it == in_flight.end()) return false;
      Answer& answer = (*answers)[it->second.first];
      answer.roundtrip_us = static_cast<double>(arrived - it->second.second) * 1e-3;
      answer.response = std::move(response);
      in_flight.erase(it);
      ++done;
    }
    return true;
  }

  void goodbye() {
    serve::Frame bye;
    bye.kind = serve::FrameKind::kGoodbye;
    bye.job_id = next_id_++;
    const auto image = serve::encode_frame(bye);
    transport_->write_all(image.data(), image.size());
    // The server drains and closes its side; read to EOF.
    std::uint8_t sink[256];
    while (transport_->read_exact(sink, 1) == 1) {
    }
    transport_->close();
  }

 private:
  bool read_frame(serve::Frame* out) {
    std::vector<std::uint8_t> image(serve::kHeaderBytes);
    if (transport_->read_exact(image.data(), serve::kHeaderBytes) !=
        serve::kHeaderBytes) {
      return false;
    }
    serve::Frame header;
    std::size_t length = 0;
    if (serve::decode_header(image, &header, &length) != serve::DecodeStatus::kOk) {
      return false;
    }
    image.resize(serve::kHeaderBytes + length);
    if (length > 0 &&
        transport_->read_exact(image.data() + serve::kHeaderBytes, length) != length) {
      return false;
    }
    Span span("serve.frame_decode");
    return serve::decode_frame(image, out) == serve::DecodeStatus::kOk;
  }

  std::unique_ptr<serve::Transport> transport_;
  std::uint32_t next_id_ = 1;
};

/// The parse / codegen payloads the server must send, rendered by the
/// benchmark from its own cache-off pipeline run.
std::map<std::pair<serve::FrameKind, std::string>, std::string> expected_payloads(
    const std::vector<CorpusDoc>& corpora) {
  std::map<std::pair<serve::FrameKind, std::string>, std::string> out;
  for (const auto& doc : corpora) {
    core::Sage sage;
    sage.set_parse_cache(nullptr);
    sage.annotate_non_actionable(doc.annotations);
    const core::ProtocolRun run = sage.process(doc.text, doc.protocol);
    const std::string signature =
        serve::hex64(serve::fnv1a_str(core::protocol_run_signature(run)));
    std::ostringstream parse;
    parse << "corpus=" << doc.name << " protocol=" << doc.protocol
          << " instances=" << run.reports.size()
          << " parsed=" << run.count(core::SentenceStatus::kParsed)
          << " zero=" << run.count(core::SentenceStatus::kZeroForms)
          << " ambiguous=" << run.count(core::SentenceStatus::kAmbiguous)
          << " non-actionable=" << run.count(core::SentenceStatus::kNonActionable)
          << " functions=" << run.functions.size() << " signature=" << signature;
    out[{serve::FrameKind::kParseRequest, doc.name}] = parse.str();
    std::ostringstream codegen;
    codegen << "corpus=" << doc.name << " functions=" << run.functions.size()
            << " signature=" << signature << "\n";
    for (const auto& fn : run.functions) {
      codegen << fn.name << " source="
              << serve::hex64(serve::fnv1a_str(fn.c_source)) << "\n";
    }
    out[{serve::FrameKind::kCodegenRequest, doc.name}] = codegen.str();
  }
  return out;
}

/// "<n> divergent" and "<n> crashes" from a fuzz summary line.
std::uint64_t count_before(const std::string& text, const std::string& word) {
  const std::size_t at = text.find(" " + word);
  if (at == std::string::npos) return ~0ULL;
  std::size_t start = at;
  while (start > 0 && std::isdigit(static_cast<unsigned char>(text[start - 1]))) {
    --start;
  }
  return start == at ? ~0ULL : std::stoull(text.substr(start, at - start));
}

}  // namespace

Result run_daemon_jobs(const Options& options) {
  Result result;
  Calibrator calib;
  SetupClock setup(&calib);
  Tracer::instance().enable(options.trace);

  setup.phase("start_server");
  serve::ServerOptions server_options;
  server_options.jobs = kWorkers;
  serve::Server server(server_options);
  serve::SocketAcceptor acceptor(0);
  std::unique_ptr<serve::Transport> client_side = serve::connect_socket(acceptor.port());
  std::unique_ptr<serve::Transport> server_side = acceptor.accept();
  if (client_side == nullptr || server_side == nullptr) {
    result.fail("D1", "could not connect to the server");
    return result;
  }
  server.serve_connection_async(std::shared_ptr<serve::Transport>(std::move(server_side)));
  WindowClient client(std::move(client_side));

  setup.phase("warm_pipelines");
  // First touch of every corpus pipeline and of each fuzz protocol, one
  // job at a time (set-up time then does not depend on how the two
  // workers' builds interleave).
  const std::vector<CorpusDoc> corpora = daemon_corpora();
  {
    std::vector<Job> warm;
    for (const auto& doc : corpora) warm.push_back({serve::FrameKind::kParseRequest, doc.name});
    for (const char* proto : kFuzzProtocols) {
      warm.push_back({serve::FrameKind::kFuzzRequest,
                      std::string("proto=") + proto + " seed=1 iters=1"});
    }
    std::vector<Answer> answers;
    if (!client.run(warm, &answers, 1)) result.fail("D1", "warm-up connection failed");
  }
  Rng rng(options.seed);
  const std::size_t batches = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.seconds * kBatchesPerSecond + 0.5));
  std::vector<std::vector<Job>> plan;
  for (std::size_t b = 0; b < batches; ++b) plan.push_back(make_batch(rng, corpora));
  if (options.fault == "bad_job") {
    // A parse job on the ICMPv6 corpus the daemon does not embed.
    plan[0][0] = {serve::FrameKind::kParseRequest, "icmp6"};
  }
  const double setup_s = setup.finish();

  // -- timed region ------------------------------------------------------
  TimedRegion region;
  region.ops_per_group = static_cast<double>(plan[0].size());
  std::vector<std::vector<Answer>> answers(batches);
  const std::int64_t region_start = now_ns();
  for (std::size_t b = 0; b < batches; ++b) {
    bool ok = true;
    region.groups.push_back(
        calib.timed([&] { ok = client.run(plan[b], &answers[b]); }));
    if (!ok) {
      result.fail("D1", "connection failed in batch " + std::to_string(b));
      break;
    }
  }
  region.wall_ns = now_ns() - region_start;
  client.goodbye();

  // -- checks (untimed) --------------------------------------------------
  if (options.fault == "change_payload") {
    for (auto& a : answers[0]) {
      if (a.response.kind == serve::FrameKind::kResult &&
          a.response.payload.rfind("corpus=", 0) == 0) {
        a.response.payload[7] ^= 0x20;
        break;
      }
    }
  }
  if (options.fault == "fuzz_divergent") {
    for (auto& a : answers[0]) {
      const auto at = a.response.payload.find(" 0 divergent");
      if (at != std::string::npos) {
        a.response.payload[at + 1] = '1';
        break;
      }
    }
  }
  const auto expected = expected_payloads(corpora);
  std::map<std::string, std::vector<double>> roundtrip;
  std::map<std::string, double> server_us;
  std::map<std::string, double> queue_us;
  std::map<std::string, double> count;
  double pipeline_jobs = 0.0;
  double pipeline_hits = 0.0;
  double arena_peak = 0.0;
  std::vector<std::pair<Job, std::uint64_t>> first_batch;  // D4's sample
  for (std::size_t b = 0; b < answers.size(); ++b) {
    for (std::size_t j = 0; j < answers[b].size(); ++j) {
      const Job& job = plan[b][j];
      const serve::Frame& r = answers[b][j].response;
      ++result.attempted;
      const bool answered = r.kind == serve::FrameKind::kResult ||
                            r.kind == serve::FrameKind::kStatsResult;
      if (r.status != serve::JobStatus::kOk || !answered) {
        ++result.failed;
        result.fail("D1", std::string(kind_label(job.kind)) + " '" + job.payload +
                              "' answered " + serve::job_status_name(r.status) +
                              ": " + r.payload.substr(0, 80));
        continue;
      }
      const std::string kind = kind_label(job.kind);
      if (job.kind == serve::FrameKind::kStatsRequest) {
        const std::size_t at = r.payload.find("\"peak_arena_high_water\": ");
        if (at != std::string::npos) {
          arena_peak = std::max(arena_peak, std::stod(r.payload.substr(at + 25)));
        }
        continue;
      }
      roundtrip[kind].push_back(answers[b][j].roundtrip_us);
      server_us[kind] += r.time_micros;
      queue_us[kind] += answers[b][j].roundtrip_us - r.time_micros;
      count[kind] += 1.0;
      if (b == 0) first_batch.emplace_back(job, serve::result_digest(r));
      if (job.kind == serve::FrameKind::kFuzzRequest) {
        if (count_before(r.payload, "divergent") != 0 ||
            count_before(r.payload, "crashes") != 0) {
          result.fail("D2", "fuzz '" + job.payload + "': " +
                                r.payload.substr(0, r.payload.find('\n')));
        }
        continue;
      }
      pipeline_jobs += 1.0;
      pipeline_hits += r.cache_hit() ? 1.0 : 0.0;
      const auto it = expected.find({job.kind, job.payload});
      if (it != expected.end() && it->second != r.payload) {
        result.fail("D3", kind + " '" + job.payload +
                              "': payload differs from the benchmark's own "
                              "pipeline run");
      }
    }
  }
  // D4: the first batch's jobs fold to the same digest on one worker.
  {
    serve::ServerOptions one;
    one.jobs = 1;
    serve::Server single(one);
    std::uint64_t timed_fold = 0xcbf29ce484222325ULL;
    std::uint64_t single_fold = 0xcbf29ce484222325ULL;
    std::uint32_t id = 0;
    for (const auto& [job, digest] : first_batch) {
      serve::Frame request;
      request.kind = job.kind;
      request.job_id = ++id;
      request.payload = job.payload;
      timed_fold = fnv1a(std::to_string(digest), timed_fold);
      single_fold = fnv1a(std::to_string(serve::result_digest(single.execute(request))),
                          single_fold);
    }
    if (timed_fold != single_fold) {
      result.fail("D4", "sampled jobs fold to " + serve::hex64(timed_fold) +
                            " here and " + serve::hex64(single_fold) +
                            " on a one-worker server");
    }
  }

  report_end_to_end(result, options, region, setup, setup_s, calib);
  if (options.trace) {
    const Tracer& tr = Tracer::instance();
    const auto avg = [&](const char* span) {
      const auto& a = tr.aggregate(span);
      return a.count == 0 ? 0.0 : a.total_ns / static_cast<double>(a.count);
    };
    result.per_layer["serve.frame_encode_ns"] = {avg("serve.frame_encode"), "ns"};
    result.per_layer["serve.frame_decode_ns"] = {avg("serve.frame_decode"), "ns"};
    if (!options.trace_out.empty()) tr.write_chrome_json(options.trace_out);
  }
  for (const auto& [kind, n] : count) {
    result.per_layer["serve.server_us." + kind] = {server_us[kind] / n, "us"};
    result.per_layer["serve.queue_wait_us." + kind] = {queue_us[kind] / n, "us"};
    result.per_layer["serve.roundtrip_p50_us." + kind] = {
        percentile(roundtrip[kind], 50.0), "us"};
    result.per_layer["serve.roundtrip_p99_us." + kind] = {
        percentile(roundtrip[kind], 99.0), "us"};
  }
  if (count["fuzz"] > 0.0) {
    result.per_layer["fuzz.case_us"] = {
        server_us["fuzz"] / (count["fuzz"] * static_cast<double>(kFuzzIterations)),
        "us"};
  }
  result.per_layer["serve.pipeline_hit_ratio"] = {
      pipeline_jobs == 0.0 ? 0.0 : pipeline_hits / pipeline_jobs, "ratio"};
  result.per_layer["serve.arena_peak_bytes"] = {arena_peak, "bytes"};
  char line[160];
  std::snprintf(line, sizeof(line), "jobs: %zu batches x %zu, window %zu, %zu workers",
                batches, plan[0].size(), kWindow, kWorkers);
  result.note(line);
  return result;
}

}  // namespace perfbench
