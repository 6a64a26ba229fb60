// spec_compile — the cold path an author pays on new RFC text.
//
// Op: one sentence instance carried from RFC text to a generated
// handler. A pass sends every bundled corpus (in a seeded order) through
// a fresh core::Sage with the parse cache off, as core::BatchRunner does
// for new documents, and lowers every generated function to a
// vm::Program. The pass count is fixed by --seconds.
//
// The traced run also replays each document through the public stages
// one by one (rfc -> nlp -> ccg -> disambig -> codegen -> vm), which
// gives the per-stage times; its surviving forms must equal those of
// Sage::process.
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <unordered_set>

#include "bench.hpp"
#include "ccg/interner.hpp"
#include "ccg/parser.hpp"
#include "codegen/generator.hpp"
#include "core/batch.hpp"
#include "core/sage.hpp"
#include "corpora.hpp"
#include "lf/logical_form.hpp"
#include "net/ipv4.hpp"
#include "nlp/chunker.hpp"
#include "nlp/tokenizer.hpp"
#include "rfc/preprocessor.hpp"
#include "runtime/generated_responder.hpp"
#include "runtime/vm/program.hpp"
#include "sim/network.hpp"
#include "sim/ping.hpp"
#include "sim/reference_responder.hpp"
#include "sim/traceroute.hpp"
#include "util/strings.hpp"

namespace perfbench {

using namespace sage;

namespace {

// Passes per nominal second of --seconds. A pass is ~470 sentence
// instances; the count keeps the interner growth of a run (FOUND in
// CHANGES.md) bounded to a few hundred MiB.
constexpr double kPassesPerSecond = 3.0;
// Traced runs replay every kReplayEvery-th pass stage by stage.
constexpr std::size_t kReplayEvery = 3;

/// A responder decorator that flips one byte of every reply: the
/// corrupted output the selftest feeds check S3.
class FlipByteResponder : public sim::IcmpResponder {
 public:
  explicit FlipByteResponder(sim::IcmpResponder* inner) : inner_(inner) {}
  using Reply = std::optional<std::vector<std::uint8_t>>;
  static Reply flip(Reply r) {
    // Byte 24 is inside the ICMP identifier of echo replies and inside
    // the quoted header of error replies.
    if (r && r->size() > 24) (*r)[24] ^= 0x01;
    return r;
  }
  Reply on_echo_request(const sim::ResponderContext& c) override {
    return flip(inner_->on_echo_request(c));
  }
  Reply on_timestamp_request(const sim::ResponderContext& c) override {
    return flip(inner_->on_timestamp_request(c));
  }
  Reply on_information_request(const sim::ResponderContext& c) override {
    return flip(inner_->on_information_request(c));
  }
  Reply on_destination_unreachable(const sim::ResponderContext& c,
                                   std::uint8_t code) override {
    return flip(inner_->on_destination_unreachable(c, code));
  }
  Reply on_time_exceeded(const sim::ResponderContext& c) override {
    return flip(inner_->on_time_exceeded(c));
  }
  Reply on_parameter_problem(const sim::ResponderContext& c,
                             std::uint8_t pointer) override {
    return flip(inner_->on_parameter_problem(c, pointer));
  }
  Reply on_source_quench(const sim::ResponderContext& c) override {
    return flip(inner_->on_source_quench(c));
  }
  Reply on_redirect(const sim::ResponderContext& c, net::IpAddr g) override {
    return flip(inner_->on_redirect(c, g));
  }

 private:
  sim::IcmpResponder* inner_;
};

/// S3: the handlers generated from RFC 792 revised answer the Appendix-A
/// ping and traceroute scenarios the way the Linux tool models accept,
/// with replies byte-equal to the hand-written reference responder's.
void check_appendix_a(const core::ProtocolRun& run, bool flip, Result& result) {
  runtime::GeneratedIcmpResponder generated;
  for (const auto& fn : run.functions) generated.add_function(fn);
  FlipByteResponder flipped(&generated);
  sim::IcmpResponder* gen = flip ? static_cast<sim::IcmpResponder*>(&flipped)
                                 : &generated;
  sim::ReferenceIcmpResponder reference;

  const auto wire = [](sim::Network& net, sim::IcmpResponder* r) {
    net.router()->set_responder(r);
    net.find_host("server1")->set_responder(r);
    net.find_host("server2")->set_responder(r);
  };
  struct PingCase {
    const char* name;
    net::IpAddr target;
    std::uint8_t ttl;
    sim::PingExpect expect;
  };
  const PingCase pings[] = {
      {"ping router", net::IpAddr(10, 0, 1, 1), 64, sim::PingExpect::kEchoReply},
      {"ping server1", net::IpAddr(192, 168, 2, 100), 64,
       sim::PingExpect::kEchoReply},
      {"ping server2", net::IpAddr(172, 64, 3, 100), 64,
       sim::PingExpect::kEchoReply},
      {"ping unknown subnet", net::IpAddr(8, 8, 8, 8), 64,
       sim::PingExpect::kDestinationUnreachable},
      {"ping ttl 1", net::IpAddr(192, 168, 2, 100), 1,
       sim::PingExpect::kTimeExceeded},
  };
  for (const auto& c : pings) {
    sim::Network gnet = sim::make_appendix_a_network();
    sim::Network rnet = sim::make_appendix_a_network();
    wire(gnet, gen);
    wire(rnet, &reference);
    sim::PingOptions opts;
    opts.ttl = c.ttl;
    opts.expect = c.expect;
    sim::PingClient client;
    const sim::PingResult g = client.ping(gnet, "client", c.target, opts);
    const sim::PingResult r = client.ping(rnet, "client", c.target, opts);
    if (!g.success) {
      result.fail("S3", std::string(c.name) + ": ping model rejected the "
                        "generated reply (" +
                        (g.detail.empty() ? "no detail" : g.detail[0]) + ")");
    }
    if (g.reply != r.reply) {
      result.fail("S3", std::string(c.name) +
                            ": generated reply differs from the reference");
    }
  }
  for (const net::IpAddr target :
       {net::IpAddr(192, 168, 2, 100), net::IpAddr(172, 64, 3, 100)}) {
    sim::Network gnet = sim::make_appendix_a_network();
    sim::Network rnet = sim::make_appendix_a_network();
    wire(gnet, gen);
    wire(rnet, &reference);
    sim::TracerouteClient tr;
    const auto g = tr.trace(gnet, "client", target);
    const auto r = tr.trace(rnet, "client", target);
    if (!g.reached_destination || g.hops.size() != 2) {
      result.fail("S3", "traceroute to " + target.to_string() +
                            " did not reach its destination in 2 hops");
    }
    bool same = gnet.capture().size() == rnet.capture().size();
    for (std::size_t i = 0; same && i < gnet.capture().size(); ++i) {
      same = gnet.capture()[i].node == rnet.capture()[i].node &&
             std::ranges::equal(gnet.capture()[i].packet.span(),
                                rnet.capture()[i].packet.span());
    }
    if (!same) {
      result.fail("S3", "traceroute to " + target.to_string() +
                            ": capture differs from the reference");
    }
  }
}

/// S1 + S2 on one document's run.
void check_document(const CorpusDoc& doc, const core::ProtocolRun& run,
                    Result& result) {
  const auto ambiguous = run.count(core::SentenceStatus::kAmbiguous);
  const auto zero = run.count(core::SentenceStatus::kZeroForms);
  if (doc.name == "rfc792-original" && (ambiguous != 4 || zero != 1)) {
    result.fail("S1", doc.name + ": expected 4 ambiguous + 1 zero-form, got " +
                          std::to_string(ambiguous) + " + " +
                          std::to_string(zero));
  }
  if ((doc.name == "rfc792-revised" || doc.name == "rfc4443-revised") &&
      (ambiguous != 0 || zero != 0)) {
    result.fail("S1", doc.name + ": expected no ambiguous or zero-form "
                                 "sentence, got " +
                          std::to_string(ambiguous) + " + " +
                          std::to_string(zero));
  }
  // S2: one report per extracted sentence, in order, and every parsed
  // sentence carries exactly one final form.
  const auto sentences = rfc::extract_sentences(
      rfc::preprocess(doc.text, doc.protocol), doc.protocol);
  if (sentences.size() != run.reports.size()) {
    result.fail("S2", doc.name + ": " + std::to_string(run.reports.size()) +
                          " reports for " + std::to_string(sentences.size()) +
                          " sentence instances");
    return;
  }
  for (std::size_t i = 0; i < sentences.size(); ++i) {
    const auto& report = run.reports[i];
    if (report.sentence.text != sentences[i].text) {
      result.fail("S2", doc.name + ": report " + std::to_string(i) +
                            " is not sentence " + std::to_string(i));
    }
    if (report.status == core::SentenceStatus::kParsed &&
        (!report.final_form || report.winnow.survivors.size() != 1)) {
      result.fail("S2", doc.name + ": parsed sentence without exactly one "
                                   "final form: " + report.sentence.text);
    }
  }
}

/// The staged replay of one document (traced runs only): the public
/// stages called in order, each under its own span. Returns the
/// surviving forms per sentence and the generated functions.
struct StagedOutcome {
  std::vector<std::vector<std::string>> survivors;  // rendered, per sentence
  std::vector<std::pair<std::string, std::string>> functions;  // name, C
  std::size_t parsed_sentences = 0;
  std::size_t base_forms = 0;
  std::size_t kept_forms = 0;
  std::uint64_t parse_allocs = 0;
  std::size_t generated = 0;
};

StagedOutcome staged_replay(const CorpusDoc& doc, const core::Sage& sage,
                            const std::unordered_set<std::string>& closed) {
  StagedOutcome out;
  std::set<std::string> non_actionable;
  for (const auto& s : doc.annotations) {
    non_actionable.insert(util::to_lower(util::trim(s)));
  }
  std::vector<rfc::SpecSentence> sentences;
  {
    Span span("rfc.preprocess");
    sentences = rfc::extract_sentences(rfc::preprocess(doc.text, doc.protocol),
                                       doc.protocol);
  }
  const nlp::NounPhraseChunker chunker(&sage.dictionary(), &closed);
  const ccg::CcgParser parser(&sage.lexicon(), ccg::ParserOptions{});
  std::vector<std::optional<lf::LogicalForm>> final_forms(sentences.size());
  out.survivors.resize(sentences.size());
  for (std::size_t i = 0; i < sentences.size(); ++i) {
    const auto& sentence = sentences[i];
    if (non_actionable.count(util::to_lower(util::trim(sentence.text))) != 0) {
      final_forms[i] = lf::LfNode::predicate(std::string(lf::pred::kAdvComment),
                                             {lf::LfNode::str(sentence.text)});
      continue;
    }
    std::vector<nlp::Token> tokens;
    {
      Span span("nlp.chunk");
      tokens = chunker.chunk(nlp::tokenize(sentence.text),
                             nlp::ChunkingMode::kFull);
    }
    const auto field_it = sentence.context.find("field");
    const std::string field =
        field_it == sentence.context.end() ? "" : field_it->second;
    std::vector<lf::LogicalForm> candidates;
    {
      Span span("ccg.parse");
      const std::uint64_t allocs0 = thread_allocations();
      auto parsed = parser.parse(tokens);
      candidates = std::move(parsed.forms);
      // Structural-context retry (§4.1 zero-LF causes), as the pipeline
      // does: a fragment becomes "<field> is <fragment>"; a clause missing
      // its subject is re-parsed with the field inserted.
      if (candidates.empty() && !field.empty()) {
        const std::string field_lower = util::to_lower(field);
        if (!parsed.fragments.empty()) {
          for (const auto& fragment : parsed.fragments) {
            candidates.push_back(lf::LfNode::predicate(
                std::string(lf::pred::kIs),
                {lf::LfNode::str(field_lower), fragment}));
          }
        } else {
          std::vector<std::size_t> positions = {0};
          for (std::size_t t = 0; t < tokens.size(); ++t) {
            if (tokens[t].kind == nlp::TokenKind::kPunct &&
                tokens[t].text == ",") {
              positions.push_back(t + 1);
            }
          }
          const auto mentions = [&field_lower](const lf::LfNode& root) {
            std::vector<const lf::LfNode*> stack = {&root};
            while (!stack.empty()) {
              const lf::LfNode* n = stack.back();
              stack.pop_back();
              if (n->is_string() && n->label == field_lower) return true;
              for (const auto& a : n->args) stack.push_back(&a);
            }
            return false;
          };
          for (const std::size_t pos : positions) {
            auto with_subject = tokens;
            with_subject.insert(with_subject.begin() + static_cast<long>(pos),
                                nlp::make_noun_phrase(field_lower));
            auto retry = parser.parse(with_subject);
            std::vector<lf::LogicalForm> filtered;
            for (auto& form : retry.forms) {
              if (form.is_predicate(lf::pred::kIf) && form.args.size() == 2 &&
                  mentions(form.args[0]) && !mentions(form.args[1])) {
                continue;
              }
              filtered.push_back(std::move(form));
            }
            if (!filtered.empty()) {
              candidates = std::move(filtered);
              break;
            }
          }
        }
      }
      out.parse_allocs += thread_allocations() - allocs0;
    }
    ++out.parsed_sentences;
    out.base_forms += candidates.size();
    disambig::WinnowResult winnowed;
    {
      Span span("disambig.winnow");
      winnowed = sage.winnower().winnow(candidates);
    }
    out.kept_forms += winnowed.survivors.size();
    for (const auto& form : winnowed.survivors) {
      out.survivors[i].push_back(form.to_string());
    }
    if (winnowed.survivors.size() == 1) final_forms[i] = winnowed.survivors[0];
  }

  // Group per (message, role) in document order and generate, with the
  // pipeline's one iterative-discovery pass.
  std::map<std::string, std::vector<codegen::SentenceLf>> per_function;
  for (std::size_t i = 0; i < sentences.size(); ++i) {
    if (!final_forms[i]) continue;
    const auto message_it = sentences[i].context.find("message");
    const std::string message =
        message_it == sentences[i].context.end() ? "" : message_it->second;
    for (const auto& role :
         core::Sage::roles_for_sentence(sentences[i].text, message)) {
      codegen::SentenceLf entry;
      entry.form = *final_forms[i];
      entry.context = codegen::DynamicContext::from_map(sentences[i].context);
      entry.context.role = role;
      entry.sentence = sentences[i].text;
      per_function[message + "\x1f" + role].push_back(std::move(entry));
    }
  }
  const codegen::CodeGenerator generator(&sage.static_context(),
                                         &sage.handlers());
  for (auto& [key, lfs] : per_function) {
    const auto sep = key.find('\x1f');
    const std::string message = key.substr(0, sep);
    const std::string role = key.substr(sep + 1);
    codegen::GenerationOutcome outcome;
    {
      Span span("codegen.generate");
      outcome = generator.generate(doc.protocol, message, role, lfs);
      if (!outcome.failed_sentences.empty()) {
        for (const auto& failed : outcome.failed_sentences) {
          for (auto& entry : lfs) {
            if (entry.sentence == failed) {
              entry.form = lf::LfNode::predicate(
                  std::string(lf::pred::kAdvComment), {lf::LfNode::str(failed)});
            }
          }
        }
        outcome = generator.generate(doc.protocol, message, role, lfs);
      }
    }
    ++out.generated;
    if (!outcome.function) continue;
    {
      Span span("codegen.lower");
      const auto program = runtime::vm::compile(*outcome.function);
      (void)program;
    }
    out.functions.emplace_back(outcome.function->name,
                               outcome.function->c_source);
  }
  return out;
}

/// S5: the staged replay agrees with Sage::process on every sentence's
/// surviving forms and on every generated function.
void check_staged(const CorpusDoc& doc, const core::ProtocolRun& run,
                  const StagedOutcome& staged, Result& result) {
  if (staged.survivors.size() != run.reports.size()) {
    result.fail("S5", doc.name + ": staged replay saw a different sentence "
                                 "count");
    return;
  }
  for (std::size_t i = 0; i < run.reports.size(); ++i) {
    std::vector<std::string> expected;
    for (const auto& form : run.reports[i].winnow.survivors) {
      expected.push_back(form.to_string());
    }
    if (expected != staged.survivors[i]) {
      result.fail("S5", doc.name + ": staged survivors differ for: " +
                            run.reports[i].sentence.text);
    }
  }
  std::vector<std::pair<std::string, std::string>> functions;
  for (const auto& fn : run.functions) functions.emplace_back(fn.name, fn.c_source);
  if (functions != staged.functions) {
    result.fail("S5", doc.name + ": staged replay generated different code");
  }
}

}  // namespace

Result run_spec_compile(const Options& options) {
  Result result;
  Calibrator calib;
  SetupClock setup(&calib);
  Tracer::instance().enable(options.trace);

  setup.phase("load_corpora");
  const std::vector<CorpusDoc> docs = bundled_corpora();
  setup.phase("first_touch");
  for (const auto& doc : docs) {
    (void)rfc::extract_sentences(rfc::preprocess(doc.text, doc.protocol),
                                 doc.protocol);
  }
  setup.phase("sage_init");
  // First touch of the process-wide lexicon data and interners.
  { core::Sage warm; (void)warm; }
  Rng rng(options.seed);
  const std::size_t passes = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.seconds * kPassesPerSecond + 0.5));
  const double setup_s = setup.finish();

  TimedRegion region;
  std::map<std::string, std::uint64_t> first_signature;
  std::uint64_t sentences_per_pass = 0;
  double interned_total = 0.0;
  std::size_t doc_runs = 0;
  StagedOutcome stage_totals;
  // Traced runs: Sage::process + lowering time of the replayed documents.
  double replayed_pass_ns = 0.0;
  const std::int64_t region_start = now_ns();
  for (std::size_t pass = 0; pass < passes; ++pass) {
    std::vector<std::size_t> order(docs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    RepTime pass_time;
    std::uint64_t pass_sentences = 0;
    for (const std::size_t d : order) {
      const CorpusDoc& doc = docs[d];
      core::ProtocolRun run;
      const std::size_t terms_before = ccg::term_interner_size();
      const RepTime t = calib.timed([&] {
        Span span("spec.document");
        core::Sage sage;
        sage.set_parse_cache(nullptr);
        sage.annotate_non_actionable(doc.annotations);
        const std::int64_t p0 = now_ns();
        run = sage.process(doc.text, doc.protocol);
        for (const auto& fn : run.functions) (void)runtime::vm::compile(fn);
        if (options.trace && pass % kReplayEvery == 0) {
          replayed_pass_ns += static_cast<double>(now_ns() - p0);
        }
      });
      pass_time.raw_ns += t.raw_ns;
      pass_time.comp_ns += t.comp_ns;
      interned_total +=
          static_cast<double>(ccg::term_interner_size() - terms_before);
      ++doc_runs;
      pass_sentences += run.reports.size();

      // Untimed: checks on the first pass, determinism on every pass.
      if (pass == 0) {
        if (options.fault == "ambiguous_off_by_one" &&
            doc.name == "rfc792-original") {
          for (auto& report : run.reports) {
            if (report.status == core::SentenceStatus::kParsed) {
              report.status = core::SentenceStatus::kAmbiguous;
              break;
            }
          }
        }
        if (options.fault == "drop_report" && doc.name == "rfc1112") {
          run.reports.erase(run.reports.begin() + 3);
        }
        check_document(doc, run, result);
        if (doc.name == "rfc792-revised") {
          check_appendix_a(run, options.fault == "flip_reply_byte", result);
        }
      }
      const std::uint64_t sig = fnv1a(core::protocol_run_signature(run));
      const auto [it, inserted] = first_signature.emplace(doc.name, sig);
      if (!inserted && it->second != sig) {
        result.fail("S4", doc.name + ": pass " + std::to_string(pass) +
                              " differs from pass 0");
      }
      if (options.trace && pass % kReplayEvery == 0) {
        // A fresh Sage, like the timed pass: a reused one parses about
        // twice as fast (its terms are already interned).
        const core::Sage replay_sage;
        std::unordered_set<std::string> closed_class;
        for (auto& w : replay_sage.lexicon().words()) closed_class.insert(w);
        StagedOutcome staged = staged_replay(doc, replay_sage, closed_class);
        if (options.fault == "staged_form" && pass == 0 &&
            !staged.survivors.empty()) {
          staged.survivors[0].push_back("(corrupted)");
        }
        check_staged(doc, run, staged, result);
        stage_totals.parsed_sentences += staged.parsed_sentences;
        stage_totals.base_forms += staged.base_forms;
        stage_totals.kept_forms += staged.kept_forms;
        stage_totals.parse_allocs += staged.parse_allocs;
        stage_totals.generated += staged.generated;
      }
    }
    if (pass == 0) {
      sentences_per_pass = pass_sentences;
    } else if (pass_sentences != sentences_per_pass) {
      result.fail("S4", "pass " + std::to_string(pass) + " saw " +
                            std::to_string(pass_sentences) + " sentences");
    }
    region.groups.push_back(pass_time);
  }
  region.wall_ns = now_ns() - region_start;
  region.ops_per_group = static_cast<double>(sentences_per_pass);
  result.attempted = sentences_per_pass * passes;

  report_end_to_end(result, options, region, setup, setup_s, calib);
  result.per_layer["ccg.terms_interned_per_doc"] = Metric{
      doc_runs == 0 ? 0.0 : interned_total / static_cast<double>(doc_runs),
      "count"};
  if (options.trace) {
    const Tracer& tr = Tracer::instance();
    const double docs_replayed =
        static_cast<double>(tr.aggregate("rfc.preprocess").count);
    const auto per = [&](const char* span, double n) {
      return n <= 0.0 ? 0.0 : tr.aggregate(span).total_ns / n * 1e-3;
    };
    const double sentences = static_cast<double>(stage_totals.parsed_sentences);
    const double functions = static_cast<double>(stage_totals.generated);
    result.per_layer["rfc.preprocess_us"] = {per("rfc.preprocess", docs_replayed), "us"};
    result.per_layer["nlp.chunk_us"] = {per("nlp.chunk", sentences), "us"};
    result.per_layer["ccg.parse_us"] = {per("ccg.parse", sentences), "us"};
    result.per_layer["disambig.winnow_us"] = {per("disambig.winnow", sentences), "us"};
    result.per_layer["codegen.generate_us"] = {per("codegen.generate", functions), "us"};
    result.per_layer["codegen.lower_us"] = {
        per("codegen.lower", static_cast<double>(tr.aggregate("codegen.lower").count)),
        "us"};
    result.per_layer["ccg.forms_per_sentence"] = {
        sentences == 0 ? 0.0 : static_cast<double>(stage_totals.base_forms) / sentences,
        "count"};
    result.per_layer["disambig.kept_ratio"] = {
        stage_totals.base_forms == 0
            ? 0.0
            : static_cast<double>(stage_totals.kept_forms) /
                  static_cast<double>(stage_totals.base_forms),
        "ratio"};
    result.per_layer["ccg.allocs_per_sentence"] = {
        sentences == 0 ? 0.0
                       : static_cast<double>(stage_totals.parse_allocs) / sentences,
        "count"};
    double stage_sum = 0.0;
    for (const char* s : {"rfc.preprocess", "nlp.chunk", "ccg.parse",
                          "disambig.winnow", "codegen.generate", "codegen.lower"}) {
      stage_sum += tr.aggregate(s).total_ns;
    }
    const double ratio = replayed_pass_ns <= 0.0 ? 0.0 : stage_sum / replayed_pass_ns;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "staged replay: stage sum / end-to-end pass time = %.3f "
                  "(README tolerance 0.80..1.20)",
                  ratio);
    result.note(line);
    if (!options.trace_out.empty()) tr.write_chrome_json(options.trace_out);
  }
  return result;
}

}  // namespace perfbench
