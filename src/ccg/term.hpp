// Lambda-calculus semantic terms (§3).
//
// CCG couples every syntactic category with a semantics written as a
// lambda expression, e.g.  is => (S\NP)/NP : \x.\y.@Is(y,x).
// Combinators apply/compose these terms; after a full parse the sentence
// term β-reduces to a ground tree of predicates — the logical form.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lf/logical_form.hpp"

namespace sage::ccg {

struct Term;
using TermPtr = std::shared_ptr<const Term>;

/// Immutable, hash-consed lambda term (see interner.hpp): the mk_*
/// factories return canonical pointers, so structurally identical terms
/// are the SAME object. Never mutated after build.
struct Term {
  enum class Kind : std::uint8_t {
    kVar,   // bound variable (id)
    kLam,   // \v. body
    kApp,   // fun arg
    kPred,  // predicate constant, e.g. "@Is"
    kStr,   // string literal
    kNum,   // numeric literal
  };

  Kind kind = Kind::kVar;
  int var = 0;        // kVar, kLam
  std::string name;   // kPred, kStr
  long number = 0;    // kNum
  TermPtr a;          // kLam: body; kApp: function
  TermPtr b;          // kApp: argument

  std::uint64_t hash = 0;  // precomputed structural hash (interner-set)
  std::uint32_t id = 0;    // dense interner id; same structure <=> same id

  // Memoized structural facts, also set at intern time. Hash-consing is
  // what makes these pay: every shared subterm carries them, so
  // beta-reduction skips normal-form subtrees in O(1) and substitution
  // returns untouched subtrees without walking them.
  /// True iff the subtree contains no redex (kApp with a kLam function).
  bool normal = true;
  /// Bloom filter over the variable ids occurring in the subtree
  /// (bit = 1 << (id & 63)). A clear bit proves the variable is absent.
  std::uint64_t var_bloom = 0;
};

TermPtr mk_var(int id);
TermPtr mk_lam(int var, TermPtr body);
TermPtr mk_app(TermPtr fun, TermPtr arg);
TermPtr mk_pred(std::string name);
TermPtr mk_str(std::string value);
TermPtr mk_num(long value);

/// Base id for lexicon/surface-syntax binders (process-wide counter —
/// fresh_var() below). The lexicon is parsed once per process
/// (corpus::shared_lexicon), so its binder ids are fixed for the
/// process's lifetime. Kept disjoint from parse-time ids so substitution
/// can never capture (every binder id in a term is unique).
inline constexpr int kLexVarBase = 1'000'000;

/// Base id for parse-time fresh variables: every CcgParser::parse call
/// restarts its own VarGen here, so rendered terms, derivations, and
/// dedup identities are deterministic regardless of thread interleaving.
/// Together with the once-per-process lexicon this bounds the term
/// interner by the distinct text parsed: a repeated parse, in any Sage,
/// re-interns the same ids instead of minting new ones.
inline constexpr int kParseVarBase = 1'000'000'000;

/// Reserved binder id for the type-raising wrapper \f.f(x). Outside both
/// the lexicon and parse-time ranges, and only ever bound in that head
/// position, so a single id is capture-safe (docs/PARSER_INTERNALS.md)
/// and raised terms become canonical per raised semantics — the parser
/// memoizes them instead of rebuilding per chart cell.
inline constexpr int kTypeRaiseVar = kParseVarBase - 1;

/// Per-parse fresh-variable generator (not thread-safe; one per parse).
class VarGen {
 public:
  int fresh() { return next_++; }

 private:
  int next_ = kParseVarBase;
};

/// Fresh variable id from the process-wide counter (kLexVarBase range).
/// Used only when parsing lexicon term syntax; chart parsing threads a
/// per-parse VarGen instead.
int fresh_var();

/// Build @Pred(arg1, ..., argN) as an application spine.
TermPtr mk_pred_app(std::string name, std::vector<TermPtr> args);

/// Full normal-order β-reduction with a step cap (malformed combinations
/// could otherwise loop). Returns nullptr if the cap is exceeded.
/// Substitution shares untouched subtrees, and interning makes rebuilt
/// already-seen subtrees allocation-free. `steps_out`, when non-null, is
/// incremented by the number of reduction steps taken (parse stats).
TermPtr beta_reduce(const TermPtr& term, int max_steps = 4096,
                    std::size_t* steps_out = nullptr);

/// beta_reduce(mk_app(fun, arg)) with a process-wide memo keyed on the
/// (fun, arg) interner-id pair — the parser's application fast path. A
/// memo hit skips even the wrapper construction. Exact: application
/// introduces no fresh variables, so the result is a pure function of
/// the canonical pair. Returns nullptr if reduction exceeds `max_steps`.
TermPtr reduce_app(const TermPtr& fun, const TermPtr& arg,
                   int max_steps = 4096, std::size_t* steps_out = nullptr);

/// Render for diagnostics: "\x1.@Is(x1, @Num(0))".
std::string term_to_string(const TermPtr& term);

/// Convert a fully reduced, closed term into a logical form. Fails
/// (nullopt) if lambdas/variables remain or an application head is not a
/// predicate — such parses are discarded (they are CCG artifacts).
std::optional<lf::LogicalForm> term_to_logical_form(const TermPtr& term);

/// Parse the lexicon surface syntax:
///   \x.\y.@Is(y, x)        lambdas and predicate application
///   @Action("compute", x)  string literals
///   f(x)                   applying a bound variable
///   16                     numeric literal
/// Returns nullptr on syntax errors.
TermPtr parse_term(std::string_view text);

}  // namespace sage::ccg
