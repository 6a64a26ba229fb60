// Performance microbenchmarks (google-benchmark): parsing, winnowing,
// code generation, checksum primitives, and the full-pipeline run. Not a
// paper table — these quantify the cost of the reproduction's substrates
// and back the DESIGN.md ablations (composition/type-raising toggles).
#include <benchmark/benchmark.h>

#include "ccg/parser.hpp"
#include "core/sage.hpp"
#include "corpus/lexicon_data.hpp"
#include "corpus/rfc792.hpp"
#include "corpus/terms.hpp"
#include "disambig/checks.hpp"
#include "disambig/winnower.hpp"
#include "net/checksum.hpp"
#include "nlp/chunker.hpp"
#include "nlp/tokenizer.hpp"
#include "rfc/preprocessor.hpp"
#include "sim/network.hpp"
#include "sim/ping.hpp"
#include "sim/reference_responder.hpp"

namespace {

using namespace sage;

const std::string kSentence =
    "If code = 0, an identifier to aid in matching echos and replies, may "
    "be zero.";

void BM_Tokenize(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(nlp::tokenize(kSentence));
  }
}
BENCHMARK(BM_Tokenize);

void BM_Chunk(benchmark::State& state) {
  const auto dict = corpus::make_term_dictionary();
  const nlp::NounPhraseChunker chunker(&dict);
  const auto tokens = nlp::tokenize(kSentence);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.chunk(tokens));
  }
}
BENCHMARK(BM_Chunk);

void BM_CcgParse(benchmark::State& state) {
  const auto dict = corpus::make_term_dictionary();
  const nlp::NounPhraseChunker chunker(&dict);
  ccg::ParserOptions options;
  options.enable_composition = state.range(0) != 0;
  options.enable_type_raising = state.range(0) != 0;
  const ccg::CcgParser parser(corpus::shared_lexicon().get(), options);
  const auto tokens = chunker.chunk(nlp::tokenize(kSentence));
  for (auto _ : state) {
    benchmark::DoNotOptimize(parser.parse(tokens));
  }
}
// Arg 1: full grammar; arg 0: application-only ablation.
BENCHMARK(BM_CcgParse)->Arg(1)->Arg(0);

void BM_Winnow(benchmark::State& state) {
  const auto dict = corpus::make_term_dictionary();
  const nlp::NounPhraseChunker chunker(&dict);
  const ccg::CcgParser parser(corpus::shared_lexicon().get());
  const auto base = parser.parse(chunker.chunk(nlp::tokenize(kSentence))).forms;
  const disambig::Winnower winnower(disambig::all_checks());
  for (auto _ : state) {
    benchmark::DoNotOptimize(winnower.winnow(base));
  }
}
BENCHMARK(BM_Winnow);

void BM_PreprocessRfc792(benchmark::State& state) {
  const auto& text = corpus::rfc792_original();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rfc::preprocess(text, "ICMP"));
  }
}
BENCHMARK(BM_PreprocessRfc792);

void BM_FullPipelineRfc792(benchmark::State& state) {
  for (auto _ : state) {
    core::Sage sage;
    sage.annotate_non_actionable(corpus::icmp_non_actionable_annotations());
    benchmark::DoNotOptimize(sage.process(corpus::rfc792_revised(), "ICMP"));
  }
}
BENCHMARK(BM_FullPipelineRfc792)->Unit(benchmark::kMillisecond);

void BM_InternetChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::internet_checksum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(1500)->Arg(65536);

void BM_SimulatedPing(benchmark::State& state) {
  sim::ReferenceIcmpResponder responder;
  for (auto _ : state) {
    sim::Network net = sim::make_appendix_a_network();
    net.router()->set_responder(&responder);
    sim::PingClient ping;
    benchmark::DoNotOptimize(
        ping.ping(net, "client", net::IpAddr(10, 0, 1, 1)));
  }
}
BENCHMARK(BM_SimulatedPing);

}  // namespace

BENCHMARK_MAIN();
