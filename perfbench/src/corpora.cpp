#include "corpora.hpp"

#include "corpus/rfc1059.hpp"
#include "corpus/rfc1112.hpp"
#include "corpus/rfc4443.hpp"
#include "corpus/rfc5880.hpp"
#include "corpus/rfc792.hpp"

namespace perfbench {

using namespace sage;

std::vector<CorpusDoc> bundled_corpora() {
  return {
      {"rfc792-original", corpus::rfc792_original(), "ICMP",
       corpus::icmp_non_actionable_annotations()},
      {"rfc792-revised", corpus::rfc792_revised(), "ICMP",
       corpus::icmp_non_actionable_annotations()},
      {"rfc1112", corpus::rfc1112_appendix_i(), "IGMP",
       corpus::igmp_non_actionable_annotations()},
      {"rfc1059", corpus::rfc1059_appendices(), "NTP",
       corpus::ntp_non_actionable_annotations()},
      {"rfc5880-6.8.6", corpus::rfc5880_state_section(), "BFD", {}},
      {"rfc4443-original", corpus::rfc4443_original(), "ICMP6",
       corpus::icmp6_non_actionable_annotations()},
      {"rfc4443-revised", corpus::rfc4443_revised(), "ICMP6",
       corpus::icmp6_non_actionable_annotations()},
  };
}

std::vector<CorpusDoc> daemon_corpora() {
  std::string bfd = "BFD State Management\n\n   Description\n\n";
  for (const auto& sentence : corpus::bfd_state_sentences()) {
    bfd += "      " + sentence + "\n";
  }
  return {
      {"bfd", bfd, "BFD", {}},
      {"icmp", corpus::rfc792_revised(), "ICMP",
       corpus::icmp_non_actionable_annotations()},
      {"icmp-orig", corpus::rfc792_original(), "ICMP",
       corpus::icmp_non_actionable_annotations()},
      {"igmp", corpus::rfc1112_appendix_i(), "IGMP",
       corpus::igmp_non_actionable_annotations()},
      {"ntp", corpus::rfc1059_appendices(), "NTP",
       corpus::ntp_non_actionable_annotations()},
  };
}

std::size_t splice(std::string& text, const std::string& original,
                   const std::string& replacement) {
  std::vector<std::string> words;
  for (std::size_t pos = 0; pos <= original.size();) {
    const std::size_t space = original.find(' ', pos);
    const std::size_t end = space == std::string::npos ? original.size() : space;
    if (end > pos) words.push_back(original.substr(pos, end - pos));
    pos = end + 1;
  }
  if (words.empty()) return 0;
  std::size_t replaced = 0;
  std::size_t from = 0;
  while (true) {
    const std::size_t start = text.find(words.front(), from);
    if (start == std::string::npos) break;
    std::size_t pos = start + words.front().size();
    bool matched = true;
    for (std::size_t w = 1; w < words.size() && matched; ++w) {
      std::size_t ws = pos;
      while (ws < text.size() &&
             (text[ws] == ' ' || text[ws] == '\n' || text[ws] == '\t')) {
        ++ws;
      }
      matched = ws > pos && text.compare(ws, words[w].size(), words[w]) == 0;
      pos = ws + words[w].size();
    }
    if (matched) {
      text = text.substr(0, start) + replacement + text.substr(pos);
      from = start + replacement.size();
      ++replaced;
    } else {
      from = start + 1;
    }
  }
  return replaced;
}

}  // namespace perfbench
