// The SAGE CCG lexicon (§3, §6.1).
//
// §6.1: "SAGE adds 71 lexical entries to an nltk-based CCG parser";
// §6.3: IGMP required 8 additional entries, NTP 5 more; §6.4: BFD's
// state-management sentences added 15. Entries are tagged with the
// protocol that required them so the implementation-stats bench can
// report the same incremental-cost table.
//
// Grammar conventions (primitive categories):
//   S    sentence          NP  noun phrase       N   noun
//   PP   prepositional     Sg  gerund/action clause
//   CONJ coordination marker (binarized coordination rule)
#pragma once

#include <memory>
#include <string>
#include <unordered_set>

#include "ccg/lexicon.hpp"

namespace sage::corpus {

/// The full lexicon (ICMP + IGMP + NTP + BFD entries), built once per
/// process on first use and shared read-only. Building it numbers the
/// entries' binders from the process-wide fresh_var() counter, so one
/// shared instance is what keeps lexicon terms, and every parse result
/// built from them, the same interned nodes for every caller.
std::shared_ptr<const ccg::Lexicon> shared_lexicon();

/// The lexicon's distinct surface words (the closed-class vocabulary the
/// chunker's no-dictionary mode keeps), built once alongside it.
const std::unordered_set<std::string>& lexicon_words();

}  // namespace sage::corpus
