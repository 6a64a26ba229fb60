// Tests for the corpus module: dictionary, lexicon counts, RFC texts,
// and the rewrite machinery.
#include <gtest/gtest.h>

#include "corpus/lexicon_data.hpp"
#include "corpus/rfc1059.hpp"
#include "corpus/rfc1112.hpp"
#include "corpus/rfc5880.hpp"
#include "corpus/rfc792.hpp"
#include "corpus/terms.hpp"
#include "rfc/preprocessor.hpp"

namespace sage::corpus {
namespace {

TEST(Terms, DictionaryIsTextbookSized) {
  // §6.1: "a dictionary of about 400 terms".
  const auto dict = make_term_dictionary();
  EXPECT_GE(dict.size(), 350u);
  EXPECT_LE(dict.size(), 450u);
}

TEST(Terms, CoversTheEvaluatedVocabulary) {
  const auto dict = make_term_dictionary();
  EXPECT_TRUE(dict.contains("echo reply message"));
  EXPECT_TRUE(dict.contains("one's complement sum"));
  EXPECT_TRUE(dict.contains("host membership query"));
  EXPECT_TRUE(dict.contains("bfd.sessionstate"));
  EXPECT_TRUE(dict.contains("peer timer"));
  EXPECT_FALSE(dict.contains("not a networking term"));
}

TEST(Lexicon, PaperEntryCounts) {
  // §6.1/§6.3/§6.4: 71 for ICMP, +8 IGMP, +5 NTP, +15 BFD.
  const ccg::Lexicon& lexicon = *shared_lexicon();
  EXPECT_EQ(lexicon.count_by_source("icmp"), 71u);
  EXPECT_EQ(lexicon.count_by_source("igmp"), 8u);
  EXPECT_EQ(lexicon.count_by_source("ntp"), 5u);
  EXPECT_EQ(lexicon.count_by_source("bfd"), 15u + 1u);  // +1: copula "not"
}

TEST(Lexicon, PaperExampleEntriesPresent) {
  // The three lexical entries §3 lists as examples.
  const ccg::Lexicon& lexicon = *shared_lexicon();
  EXPECT_TRUE(lexicon.contains("checksum") ||
              make_term_dictionary().contains("checksum"));
  ASSERT_FALSE(lexicon.lookup("is").empty());
  EXPECT_EQ(lexicon.lookup("is")[0].category->to_string(), "(S\\NP)/NP");
  ASSERT_FALSE(lexicon.lookup("zero").empty());
}

TEST(Rfc792, OriginalHasEightSections) {
  const auto doc = rfc::preprocess(rfc792_original(), "ICMP");
  ASSERT_EQ(doc.sections.size(), 8u);
  EXPECT_EQ(doc.sections[0].title, "Destination Unreachable Message");
  EXPECT_EQ(doc.sections[5].title, "Echo or Echo Reply Message");
  for (const auto& section : doc.sections) {
    EXPECT_TRUE(section.diagram.has_value()) << section.title;
  }
}

TEST(Rfc792, EightySevenInstances) {
  const auto doc = rfc::preprocess(rfc792_original(), "ICMP");
  EXPECT_EQ(rfc::extract_sentences(doc, "ICMP").size(), 87u);
}

TEST(Rfc792, RewriteSetMatchesTable6) {
  std::map<RewriteCategory, int> counts;
  for (const auto& rewrite : rfc792_rewrites()) ++counts[rewrite.category];
  EXPECT_EQ(counts[RewriteCategory::kMoreThanOneLf], 4);
  EXPECT_EQ(counts[RewriteCategory::kZeroLf], 1);
  EXPECT_EQ(counts[RewriteCategory::kImprecise], 6);
}

TEST(Rfc792, EveryRewriteOriginalOccursInText) {
  // The whitespace-insensitive splice must find each original.
  const std::string revised = rfc792_revised();
  for (const auto& rewrite : rfc792_rewrites()) {
    // After revision the replacement text must be present...
    EXPECT_NE(revised.find(rewrite.replacement.substr(0, 40)),
              std::string::npos)
        << rewrite.replacement;
  }
  // ...and the "To form" constructions must be gone.
  EXPECT_EQ(revised.find("To form an echo reply message"), std::string::npos);
  EXPECT_EQ(revised.find("type code changed"), std::string::npos);
}

TEST(Rfc792, RevisedKeepsInstanceCount) {
  const auto doc = rfc::preprocess(rfc792_revised(), "ICMP");
  EXPECT_EQ(rfc::extract_sentences(doc, "ICMP").size(), 87u);
}

TEST(Rfc792, AnnotationsMatchSentences) {
  // Every non-actionable annotation must correspond to an actual sentence
  // in the pre-processed document (otherwise it silently does nothing).
  const auto doc = rfc::preprocess(rfc792_original(), "ICMP");
  const auto sentences = rfc::extract_sentences(doc, "ICMP");
  for (const auto& annotation : icmp_non_actionable_annotations()) {
    bool found = false;
    for (const auto& s : sentences) {
      if (s.text == annotation) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "annotation does not match any sentence: "
                       << annotation;
  }
}

TEST(Rfc1112, AppendixParses) {
  const auto doc = rfc::preprocess(rfc1112_appendix_i(), "IGMP");
  ASSERT_EQ(doc.sections.size(), 1u);
  ASSERT_TRUE(doc.sections[0].diagram.has_value());
  EXPECT_EQ(doc.sections[0].diagram->fields.size(), 5u);
  EXPECT_EQ(doc.sections[0].diagram->fields[0].bits, 4);  // Version
}

TEST(Rfc1059, TwoSectionsWithDiagrams) {
  const auto doc = rfc::preprocess(rfc1059_appendices(), "NTP");
  ASSERT_EQ(doc.sections.size(), 2u);
  EXPECT_TRUE(doc.sections[0].diagram.has_value());  // UDP header
  EXPECT_TRUE(doc.sections[1].diagram.has_value());  // NTP header
}

TEST(Rfc5880, HeaderDiagramHasMandatorySection) {
  const auto doc = rfc::preprocess(rfc5880_header_section(), "BFD");
  ASSERT_FALSE(doc.sections.empty());
  ASSERT_TRUE(doc.sections[0].diagram.has_value());
  EXPECT_EQ(doc.sections[0].diagram->fixed_bits(), 24 * 8);
}

TEST(Rfc5880, TwentyTwoStateSentences) {
  EXPECT_EQ(bfd_state_sentences().size(), 22u);
  EXPECT_EQ(bfd_challenges().size(), 2u);
  EXPECT_EQ(bfd_challenges()[0].type, "Nested code");
  EXPECT_EQ(bfd_challenges()[1].type, "Rephrasing");
}

TEST(Rfc1059, TimeoutSentenceMatchesTable11) {
  EXPECT_NE(ntp_timeout_sentence().find("timeout procedure"),
            std::string::npos);
}

}  // namespace
}  // namespace sage::corpus
