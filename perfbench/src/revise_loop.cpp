// revise_loop — the paper's Fig. 4 loop: an author edits one sentence,
// SAGE re-runs the whole document.
//
// Op: one re-run of a whole document after one edit (parse -> winnow ->
// codegen -> lower). A session starts from a fresh core::BatchRunner
// (one worker, parse cache on) and an untimed cold run of RFC 792 and
// RFC 4443 originals, then applies the 17 clarifying rewrites (11 for
// RFC 792, 6 for RFC 4443) one at a time in a seeded order, re-running
// the edited document after each. The session count is fixed by
// --seconds.
#include <algorithm>
#include <map>

#include "bench.hpp"
#include "ccg/interner.hpp"
#include "codegen/generator.hpp"
#include "core/batch.hpp"
#include "core/sage.hpp"
#include "corpora.hpp"
#include "corpus/rfc4443.hpp"
#include "corpus/rfc792.hpp"
#include "rfc/preprocessor.hpp"
#include "runtime/vm/program.hpp"

namespace perfbench {

using namespace sage;

namespace {

// Sessions per nominal second of --seconds (a session is 17 re-runs
// plus its untimed cold run).
constexpr double kSessionsPerSecond = 3.0;

struct Edit {
  std::size_t doc;  // 0 = RFC 792, 1 = RFC 4443
  const corpus::Rewrite* rewrite;
};

std::size_t flagged(const core::ProtocolRun& run) {
  return run.count(core::SentenceStatus::kAmbiguous) +
         run.count(core::SentenceStatus::kZeroForms);
}

bool is_lf_rewrite(const corpus::Rewrite& r) {
  return r.category != corpus::RewriteCategory::kImprecise;
}

/// Traced runs only: the re-run's two halves, replayed through the
/// public calls with the session's parse cache (so they see the same
/// cache hits the re-run did).
void replay_halves(const core::BatchJob& job,
                   const std::shared_ptr<ccg::ParseCache>& cache) {
  core::Sage sage;
  sage.set_parse_cache(cache);
  sage.annotate_non_actionable(job.non_actionable);
  const auto sentences = rfc::extract_sentences(
      rfc::preprocess(job.rfc_text, job.protocol), job.protocol);
  std::vector<core::SentenceReport> reports;
  {
    Span span("core.rerun_parse_winnow");
    for (const auto& s : sentences) reports.push_back(sage.analyze_sentence(s));
  }
  Span span("core.rerun_codegen_lower");
  std::map<std::string, std::vector<codegen::SentenceLf>> per_function;
  for (const auto& report : reports) {
    if (!report.final_form) continue;
    const auto& ctx = report.sentence.context;
    const auto it = ctx.find("message");
    const std::string message = it == ctx.end() ? "" : it->second;
    for (const auto& role :
         core::Sage::roles_for_sentence(report.sentence.text, message)) {
      codegen::SentenceLf entry;
      entry.form = *report.final_form;
      entry.context = codegen::DynamicContext::from_map(ctx);
      entry.context.role = role;
      entry.sentence = report.sentence.text;
      per_function[message + "\x1f" + role].push_back(std::move(entry));
    }
  }
  const codegen::CodeGenerator generator(&sage.static_context(),
                                         &sage.handlers());
  for (const auto& [key, lfs] : per_function) {
    const auto sep = key.find('\x1f');
    auto outcome = generator.generate(job.protocol, key.substr(0, sep),
                                      key.substr(sep + 1), lfs);
    if (outcome.function) (void)runtime::vm::compile(*outcome.function);
  }
}

}  // namespace

Result run_revise_loop(const Options& options) {
  Result result;
  Calibrator calib;
  SetupClock setup(&calib);
  Tracer::instance().enable(options.trace);

  setup.phase("load_corpora");
  const std::string originals[2] = {corpus::rfc792_original(),
                                    corpus::rfc4443_original()};
  const std::string revised[2] = {corpus::rfc792_revised(),
                                  corpus::rfc4443_revised()};
  const char* protocols[2] = {"ICMP", "ICMP6"};
  const std::vector<std::string> annotations[2] = {
      corpus::icmp_non_actionable_annotations(),
      corpus::icmp6_non_actionable_annotations()};
  std::vector<Edit> edits;
  for (const auto& r : corpus::rfc792_rewrites()) edits.push_back({0, &r});
  for (const auto& r : corpus::rfc4443_rewrites()) edits.push_back({1, &r});
  const auto make_job = [&](std::size_t d, const std::string& text) {
    core::BatchJob job;
    job.name = protocols[d];
    job.rfc_text = text;
    job.protocol = protocols[d];
    job.non_actionable = annotations[d];
    return job;
  };

  Rng rng(options.seed);
  const std::size_t sessions = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.seconds * kSessionsPerSecond + 0.5));
  double setup_s = 0.0;
  TimedRegion region;
  region.ops_per_group = static_cast<double>(edits.size());
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
  double interned_total = 0.0;
  std::int64_t region_start = 0;

  for (std::size_t session = 0; session < sessions; ++session) {
    if (session == 0) setup.phase("cold_run");
    core::BatchRunner runner(1, 4096);
    std::string texts[2] = {originals[0], originals[1]};
    std::size_t counts[2] = {0, 0};
    {
      const auto cold = runner.run({make_job(0, texts[0]), make_job(1, texts[1])});
      counts[0] = flagged(cold[0].run);
      counts[1] = flagged(cold[1].run);
    }
    std::vector<Edit> order = edits;
    rng.shuffle(order);
    const std::size_t sampled = rng.below(order.size());
    std::size_t lf_left[2] = {0, 0};
    for (const Edit& e : order) lf_left[e.doc] += is_lf_rewrite(*e.rewrite);
    if (session == 0) {
      setup_s = setup.finish();
      region_start = now_ns();
    }

    RepTime session_time;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const Edit& edit = order[i];
      const std::size_t d = edit.doc;
      if (splice(texts[d], edit.rewrite->original, edit.rewrite->replacement) ==
          0) {
        result.fail("R2", "rewrite not found in the text: " +
                              edit.rewrite->original.substr(0, 60));
      }
      const core::BatchJob job = make_job(d, texts[d]);
      std::vector<core::BatchDocumentResult> rerun;
      const std::size_t terms_before = ccg::term_interner_size();
      const RepTime t = calib.timed([&] {
        Span span("core.rerun");
        rerun = runner.run({job});
      });
      session_time.raw_ns += t.raw_ns;
      session_time.comp_ns += t.comp_ns;
      interned_total +=
          static_cast<double>(ccg::term_interner_size() - terms_before);
      core::ProtocolRun& run = rerun[0].run;
      hits += run.cache.hits;
      lookups += run.cache.lookups();

      // R1: the flagged count never rises; imprecise rewrites leave it
      // unchanged; RFC 792's LF rewrites each lower it by exactly one;
      // it is 0 once every LF rewrite of the document is in.
      std::size_t now_flagged = flagged(run);
      if (options.fault == "ambiguous_off_by_one" && session == 0 && i == 0) {
        ++now_flagged;
      }
      const std::string what = std::string(protocols[d]) + " edit " +
                               std::to_string(i) + " (" +
                               corpus::rewrite_category_name(
                                   edit.rewrite->category) +
                               "): " + std::to_string(counts[d]) + " -> " +
                               std::to_string(now_flagged);
      if (now_flagged > counts[d]) result.fail("R1", "count rose, " + what);
      if (!is_lf_rewrite(*edit.rewrite) && now_flagged != counts[d]) {
        result.fail("R1", "imprecise rewrite changed the count, " + what);
      }
      if (d == 0 && is_lf_rewrite(*edit.rewrite) && now_flagged + 1 != counts[d]) {
        result.fail("R1", "LF rewrite did not clear exactly one, " + what);
      }
      lf_left[d] -= is_lf_rewrite(*edit.rewrite);
      if (lf_left[d] == 0 && now_flagged != 0) {
        result.fail("R1", "every LF rewrite is in but the count is not 0, " + what);
      }
      counts[d] = now_flagged;

      // R3: a sampled re-run equals the same text run with the cache off.
      if (i == sampled) {
        if (options.fault == "drop_report") run.reports.pop_back();
        core::Sage fresh;
        fresh.set_parse_cache(nullptr);
        fresh.annotate_non_actionable(job.non_actionable);
        const auto uncached = fresh.process(job.rfc_text, job.protocol);
        if (core::protocol_run_signature(run) !=
            core::protocol_run_signature(uncached)) {
          result.fail("R3", std::string(protocols[d]) + " edit " +
                                std::to_string(i) +
                                ": cached re-run differs from a cache-off run");
        }
      }
      if (options.trace) replay_halves(job, runner.cache());
    }
    // R2: the fully rewritten texts are the revised corpora.
    if (options.fault == "change_text" && session == 0) texts[1] += " ";
    for (std::size_t d = 0; d < 2; ++d) {
      if (texts[d] != revised[d]) {
        result.fail("R2", std::string(protocols[d]) +
                              ": fully rewritten text differs from the "
                              "revised corpus");
      }
    }
    region.groups.push_back(session_time);
  }
  region.wall_ns = now_ns() - region_start;
  result.attempted = edits.size() * sessions;

  report_end_to_end(result, options, region, setup, setup_s, calib);
  const double reruns = static_cast<double>(result.attempted);
  result.per_layer["ccg.terms_interned_per_doc"] = {interned_total / reruns,
                                                     "count"};
  result.per_layer["ccg.cache_hit_ratio"] = {
      lookups == 0 ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(lookups),
      "ratio"};
  if (options.trace) {
    const Tracer& tr = Tracer::instance();
    result.per_layer["core.rerun_parse_winnow_us"] = {
        tr.aggregate("core.rerun_parse_winnow").total_ns / reruns * 1e-3, "us"};
    result.per_layer["core.rerun_codegen_lower_us"] = {
        tr.aggregate("core.rerun_codegen_lower").total_ns / reruns * 1e-3, "us"};
    if (!options.trace_out.empty()) tr.write_chrome_json(options.trace_out);
  }
  return result;
}

}  // namespace perfbench
