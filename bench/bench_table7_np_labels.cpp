// Table 7: "Comparison of the number of logical forms between good and
// poor noun phrase labels" — the echo "Addresses" sentence with two
// different labelings of "echo reply message".
#include <cstdio>

#include "bench_util.hpp"
#include "ccg/parser.hpp"
#include "corpus/lexicon_data.hpp"
#include "nlp/tokenizer.hpp"

int main() {
  using namespace sage;
  benchutil::title("Table 7", "good vs poor noun-phrase labels");

  // Quoted phrases become pre-labeled noun phrases (§3); the two rows of
  // Table 7 differ only in whether "echo reply message" is one label.
  const std::string poor =
      "The 'address' of the 'source' in an 'echo message' will be the "
      "'destination' of the 'echo reply' 'message'.";
  const std::string good =
      "The 'address' of the 'source' in an 'echo message' will be the "
      "'destination' of the 'echo reply message'.";

  const ccg::CcgParser parser(corpus::shared_lexicon().get());

  const auto count = [&parser](const std::string& sentence) {
    return parser.parse(nlp::tokenize(sentence)).forms.size();
  };

  benchutil::row("SENTENCE LABELING", "#LFs (paper)");
  benchutil::rule();
  benchutil::row("Poor: ... 'echo reply' 'message'",
                 std::to_string(count(poor)) + " (16)");
  benchutil::row("Good: ... 'echo reply message'",
                 std::to_string(count(good)) + " (6)");
  benchutil::rule();
  std::printf("Shape to hold: the poor labeling yields strictly more\n"
              "logical forms than the good one.\n");
  return 0;
}
