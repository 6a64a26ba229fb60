// The bundled RFC corpora the workloads feed SAGE, and the one-rewrite
// splice the revision loop applies.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct CorpusDoc {
  std::string name;      // "rfc792-original", ...
  std::string text;
  std::string protocol;  // pipeline protocol tag ("ICMP", "ICMP6", ...)
  std::vector<std::string> annotations;  // pre-annotated non-actionable
};

/// RFC 792 original and revised, RFC 1112, RFC 1059, RFC 5880 §6.8.6,
/// RFC 4443 original and revised — in that order.
std::vector<CorpusDoc> bundled_corpora();

/// The five corpora sage_serve embeds, by request-payload name, built
/// the way the daemon builds them.
std::vector<CorpusDoc> daemon_corpora();

/// Replace every occurrence of `original` in `text` by `replacement`,
/// matching any whitespace run where `original` has a space (the texts
/// are hard-wrapped). Returns the number of occurrences replaced.
std::size_t splice(std::string& text, const std::string& original,
                   const std::string& replacement);

}  // namespace perfbench
