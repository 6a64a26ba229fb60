// Integration tests for the core pipeline: the paper's headline counts
// on all four corpora, the feedback-loop behaviours, ablation plumbing,
// and parameterized property sweeps over the winnowing invariants.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/sage.hpp"
#include "corpus/rfc1059.hpp"
#include "corpus/rfc1112.hpp"
#include "corpus/rfc5880.hpp"
#include "corpus/rfc792.hpp"

namespace sage::core {
namespace {

class IcmpOriginal : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Sage sage;
    sage.annotate_non_actionable(corpus::icmp_non_actionable_annotations());
    run_ = new ProtocolRun(sage.process(corpus::rfc792_original(), "ICMP"));
  }
  static void TearDownTestSuite() {
    delete run_;
    run_ = nullptr;
  }
  static ProtocolRun* run_;
};
ProtocolRun* IcmpOriginal::run_ = nullptr;

TEST_F(IcmpOriginal, PaperHeadlineCounts) {
  // §6.5: "Among 87 instances in RFC 792, we found 4 that result in more
  // than 1 logical form and 1 results in 0 logical forms."
  EXPECT_EQ(run_->reports.size(), 87u);
  EXPECT_EQ(run_->count(SentenceStatus::kAmbiguous), 4u);
  EXPECT_EQ(run_->count(SentenceStatus::kZeroForms), 1u);
}

TEST_F(IcmpOriginal, TheZeroLfSentenceIsExampleD) {
  for (const auto& r : run_->reports) {
    if (r.status == SentenceStatus::kZeroForms) {
      EXPECT_NE(r.sentence.text.find("Address of the gateway"),
                std::string::npos);
    }
  }
}

TEST_F(IcmpOriginal, AmbiguousSentencesAreTheKnownThree) {
  // 4 instances, 3 unique shapes: the Addresses sentence + the three
  // "To form ..." variants.
  std::size_t to_form = 0, addresses = 0;
  for (const auto& r : run_->reports) {
    if (r.status != SentenceStatus::kAmbiguous) continue;
    if (r.sentence.text.find("To form") != std::string::npos) ++to_form;
    if (r.sentence.text.find("address of the source") != std::string::npos) {
      ++addresses;
    }
  }
  EXPECT_EQ(to_form, 3u);
  EXPECT_EQ(addresses, 1u);
}

TEST_F(IcmpOriginal, ImpreciseSentencesParseToOneForm) {
  // The 6 "may be zero" variants winnow to exactly one LF — their problem
  // (under-specification) is only visible to unit tests (§6.5).
  std::size_t imprecise = 0;
  for (const auto& r : run_->reports) {
    if (r.sentence.text.find("may be zero") == std::string::npos) continue;
    ++imprecise;
    EXPECT_EQ(r.status, SentenceStatus::kParsed) << r.sentence.text;
  }
  EXPECT_EQ(imprecise, 6u);
}

TEST_F(IcmpOriginal, FragmentsUseStructuralContext) {
  // Field-description fragments (examples A/B) parse via the supplied
  // subject.
  bool found = false;
  for (const auto& r : run_->reports) {
    if (r.sentence.text.find("The internet header plus") != std::string::npos) {
      found = true;
      EXPECT_TRUE(r.used_structural_context);
      EXPECT_EQ(r.status, SentenceStatus::kParsed);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(IcmpOriginal, IterativeDiscoveryTagsUseSentence) {
  ASSERT_EQ(run_->discovered_non_actionable.size(), 1u);
  EXPECT_NE(run_->discovered_non_actionable[0].find("may be used"),
            std::string::npos);
}

TEST(IcmpRevised, FullyDisambiguated) {
  Sage sage;
  sage.annotate_non_actionable(corpus::icmp_non_actionable_annotations());
  const auto run = sage.process(corpus::rfc792_revised(), "ICMP");
  EXPECT_EQ(run.reports.size(), 87u);
  EXPECT_EQ(run.count(SentenceStatus::kAmbiguous), 0u);
  EXPECT_EQ(run.count(SentenceStatus::kZeroForms), 0u);
  EXPECT_EQ(run.functions.size(), 11u);
}

TEST(Generality, IgmpParsesCleanly) {
  Sage sage;
  sage.annotate_non_actionable(corpus::igmp_non_actionable_annotations());
  const auto run = sage.process(corpus::rfc1112_appendix_i(), "IGMP");
  EXPECT_EQ(run.count(SentenceStatus::kAmbiguous), 0u);
  EXPECT_EQ(run.count(SentenceStatus::kZeroForms), 0u);
  EXPECT_EQ(run.functions.size(), 1u);
}

TEST(Generality, NtpParsesCleanly) {
  Sage sage;
  sage.annotate_non_actionable(corpus::ntp_non_actionable_annotations());
  const auto run = sage.process(corpus::rfc1059_appendices(), "NTP");
  EXPECT_EQ(run.count(SentenceStatus::kAmbiguous), 0u);
  EXPECT_EQ(run.count(SentenceStatus::kZeroForms), 0u);
  EXPECT_EQ(run.functions.size(), 2u);  // UDP section + NTP section
}

TEST(Generality, BfdAllTwentyTwoParse) {
  Sage sage;
  const auto run = sage.process(corpus::rfc5880_state_section(), "BFD");
  EXPECT_EQ(run.reports.size(), 22u);
  EXPECT_EQ(run.count(SentenceStatus::kParsed), 22u);
}

TEST(Roles, MessageRoleAssignment) {
  EXPECT_EQ(Sage::roles_for_message("Echo or Echo Reply Message").size(), 2u);
  EXPECT_EQ(Sage::roles_for_message("Redirect Message").size(), 1u);
  const auto receiver = Sage::roles_for_sentence(
      "To form an echo reply message, ...", "Echo or Echo Reply Message");
  ASSERT_EQ(receiver.size(), 1u);
  EXPECT_EQ(receiver[0], "receiver");
  const auto sender = Sage::roles_for_sentence(
      "If code = 0, the sender may set the identifier to zero.",
      "Echo or Echo Reply Message");
  ASSERT_EQ(sender.size(), 1u);
  EXPECT_EQ(sender[0], "sender");
}

TEST(Annotations, NonActionableSkipsParsing) {
  Sage sage;
  sage.annotate_non_actionable({"This sentence would never parse anyway."});
  rfc::SpecSentence s;
  s.text = "This sentence would never parse anyway.";
  const auto report = sage.analyze_sentence(s);
  EXPECT_EQ(report.status, SentenceStatus::kNonActionable);
  ASSERT_TRUE(report.final_form.has_value());
  EXPECT_TRUE(report.final_form->is_predicate(lf::pred::kAdvComment));
}

// ---- property sweeps -------------------------------------------------------

/// Winnowing invariants, checked for every sentence instance of every
/// corpus: stage counts are monotone non-increasing; survivors are a
/// subset of the base candidates; the survivor count equals the final
/// stage count. The corpus name is a std::string rather than a
/// const char* so the printed parameter (and thus the test name) holds
/// the text, not an address that changes from run to run.
class WinnowInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(WinnowInvariants, MonotoneAndConsistent) {
  const auto [corpus_name, index] = GetParam();
  (void)index;
  Sage sage;
  std::string text;
  std::string protocol;
  if (corpus_name == "icmp") {
    sage.annotate_non_actionable(corpus::icmp_non_actionable_annotations());
    text = corpus::rfc792_original();
    protocol = "ICMP";
  } else if (corpus_name == "igmp") {
    sage.annotate_non_actionable(corpus::igmp_non_actionable_annotations());
    text = corpus::rfc1112_appendix_i();
    protocol = "IGMP";
  } else {
    text = corpus::rfc5880_state_section();
    protocol = "BFD";
  }
  const auto run = sage.process(text, protocol);
  for (const auto& report : run.reports) {
    if (report.winnow.stages.empty()) continue;
    for (std::size_t i = 1; i < report.winnow.stages.size(); ++i) {
      EXPECT_LE(report.winnow.stages[i].remaining,
                report.winnow.stages[i - 1].remaining)
          << report.sentence.text;
    }
    EXPECT_EQ(report.winnow.stages.back().remaining,
              report.winnow.survivors.size());
    // Every survivor came from the base candidate set.
    for (const auto& survivor : report.winnow.survivors) {
      bool in_base = false;
      for (const auto& candidate : report.base_candidates) {
        if (candidate == survivor) {
          in_base = true;
          break;
        }
      }
      EXPECT_TRUE(in_base) << report.sentence.text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCorpora, WinnowInvariants,
    ::testing::Values(std::make_tuple(std::string("icmp"), 0),
                      std::make_tuple(std::string("igmp"), 0),
                      std::make_tuple(std::string("bfd"), 0)));

}  // namespace
}  // namespace sage::core
