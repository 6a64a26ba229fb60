// Golden tests for the hash-consed, index-probed parser.
//
// Two layers of evidence that the hot-path rewrite changed the work,
// not the answer:
//
//  1. Per-sentence parse goldens: every sentence of every corpus is
//     parsed with derivations recorded, and its forms, fragments,
//     unknown tokens, derivation trees and chart counters (edges
//     admitted, duplicates rejected, cap drops) are folded into one
//     FNV-1a per corpus. The pinned values were recorded from the
//     seed's cross-product scan with string-rendered dedup keys, after
//     checking that the indexed parser produced the same hash.
//     index_probes is left out: it counts work the scan never did.
//
//  2. Seed goldens: protocol_run_signature renders the ENTIRE pipeline
//     output (every candidate, winnow stage, survivor, final form, and
//     generated C function). The FNV-1a hashes below were captured from
//     the pre-interning seed parser; matching them proves the pipeline
//     output is byte-identical to the seed, not merely self-consistent.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ccg/parser.hpp"
#include "core/batch.hpp"
#include "core/sage.hpp"
#include "corpus/rfc1059.hpp"
#include "corpus/rfc1112.hpp"
#include "corpus/rfc5880.hpp"
#include "corpus/rfc792.hpp"
#include "corpus/rfc793.hpp"
#include "nlp/chunker.hpp"
#include "nlp/tokenizer.hpp"
#include "rfc/preprocessor.hpp"

namespace sage {
namespace {

struct Corpus {
  const char* name;
  std::string text;
  const char* protocol;
  std::vector<std::string> annotations;
  std::uint64_t seed_signature;  // FNV-1a of protocol_run_signature
  std::uint64_t parse_golden;    // ParseFnv over every sentence's parse
};

std::string sentence_corpus(const char* protocol,
                            const std::vector<std::string>& sentences) {
  std::string text = std::string(protocol) + " State Management\n\n";
  text += "   Description\n\n";
  for (const auto& s : sentences) text += "      " + s + "\n";
  return text;
}

std::vector<Corpus> corpora() {
  std::vector<std::string> tcp;
  for (const auto& probe : corpus::tcp_probe_sentences()) {
    tcp.push_back(probe.text);
  }
  return {
      {"ICMP", corpus::rfc792_original(), "ICMP",
       corpus::icmp_non_actionable_annotations(), 0x75bcb06ce22a2188ull,
       0x56971de8d8f01969ull},
      {"IGMP", corpus::rfc1112_appendix_i(), "IGMP",
       corpus::igmp_non_actionable_annotations(), 0xea9c8d5e6e0fd335ull,
       0xdcf53a0d2894a5e1ull},
      {"NTP", corpus::rfc1059_appendices(), "NTP",
       corpus::ntp_non_actionable_annotations(), 0x32541b8c8ee5fe1aull,
       0x8e1bff1c20a64df3ull},
      {"BFD", sentence_corpus("BFD", corpus::bfd_state_sentences()), "BFD",
       {}, 0x349f5dc9ffe95c53ull, 0x0e09d29fae685545ull},
      {"TCP", sentence_corpus("TCP", tcp), "TCP", {}, 0xcb4d07aafbb757b6ull,
       0xc4a3650213dbbda2ull},
  };
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// FNV-1a over a parse record. Strings are length-prefixed and numbers
/// are 8 little-endian bytes, so adjacent fields cannot run together.
struct ParseFnv {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint8_t>(v >> (8 * i));
      h *= 1099511628211ull;
    }
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  void add(const ccg::ParseResult& r) {
    add(r.forms.size());
    for (const auto& f : r.forms) add(f.to_string());
    add(r.fragments.size());
    for (const auto& f : r.fragments) add(f.to_string());
    add(r.unknown_tokens.size());
    for (const auto& t : r.unknown_tokens) add(t);
    add(r.derivations.size());
    for (const auto& d : r.derivations) add(d.to_string());
    add(r.stats.edges_created);
    add(r.stats.dedup_hits);
    add(r.stats.cap_drops);
  }
};

// Layer 1: every sentence's ParseResult, derivations and chart counters
// included, against the goldens the seed's cross-product scan recorded.
// The test name predates the scan's removal; the comparison it makes is
// the same, against the scan's pinned output instead of a live run.
TEST(Differential, ReferenceAndProductionParsersAgreeByteForByte) {
  core::Sage sage;
  const nlp::NounPhraseChunker chunker(&sage.dictionary());

  ccg::ParserOptions options;
  options.record_derivations = true;
  const ccg::CcgParser parser(&sage.lexicon(), options);

  std::size_t sentences_checked = 0;
  for (const auto& corpus : corpora()) {
    ParseFnv fnv;
    const rfc::RfcDocument doc = rfc::preprocess(corpus.text, corpus.protocol);
    for (const auto& sentence :
         rfc::extract_sentences(doc, corpus.protocol)) {
      fnv.add(parser.parse(chunker.chunk(nlp::tokenize(sentence.text))));
      ++sentences_checked;
    }
    EXPECT_EQ(fnv.h, corpus.parse_golden)
        << corpus.name << " parses diverged from the seed scan's output";
  }
  EXPECT_GT(sentences_checked, 100u);
}

// Layer 2: the production pipeline reproduces the seed parser's full
// rendered output on all five corpora.
TEST(Differential, ProductionPipelineMatchesSeedGoldens) {
  for (const auto& corpus : corpora()) {
    core::Sage sage;
    sage.set_parse_cache(nullptr);  // cold parses only
    sage.annotate_non_actionable(corpus.annotations);
    const core::ProtocolRun run = sage.process(corpus.text, corpus.protocol);
    const std::string signature = core::protocol_run_signature(run);
    EXPECT_EQ(fnv1a(signature), corpus.seed_signature)
        << corpus.name << " pipeline output diverged from the seed parser ("
        << signature.size() << " signature bytes)";
  }
}

}  // namespace
}  // namespace sage
