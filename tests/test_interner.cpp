// Property tests for the hash-consing interner (src/ccg/interner.hpp):
// canonical pointers, stable hashes/ids, thread-safety of concurrent
// interning, and the bound that one shared lexicon per process puts on
// the term table (this file runs under the `concurrency` ctest label, so
// the TSan preset covers the striped-lock paths and the lexicon's
// one-time initialisation).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "ccg/category.hpp"
#include "ccg/interner.hpp"
#include "ccg/term.hpp"
#include "core/batch.hpp"
#include "core/sage.hpp"
#include "corpus/lexicon_data.hpp"
#include "corpus/rfc792.hpp"

namespace sage::ccg {
namespace {

TEST(Interner, SameCategoryStructureSamePointer) {
  const CategoryPtr a = Category::parse("(S\\NP)/NP");
  const CategoryPtr b = Category::parse("(S\\NP)/NP");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());

  // Built a different way — explicit factories — still the same node.
  const CategoryPtr c = Category::complex(
      Category::complex(cat_S(), Category::Slash::kBackward, cat_NP()),
      Category::Slash::kForward, cat_NP());
  EXPECT_EQ(a.get(), c.get());
}

TEST(Interner, PointerEqualityMatchesStructuralEquality) {
  const std::vector<CategoryPtr> cats = {
      Category::parse("S"),          Category::parse("NP"),
      Category::parse("S/NP"),       Category::parse("S\\NP"),
      Category::parse("(S\\NP)/NP"), Category::parse("S\\NP/NP"),
  };
  for (const auto& x : cats) {
    for (const auto& y : cats) {
      EXPECT_EQ(x.get() == y.get(), x->equals(*y))
          << x->to_string() << " vs " << y->to_string();
    }
  }
}

TEST(Interner, SameTermStructureSamePointer) {
  const TermPtr a = mk_pred_app("@Is", {mk_str("checksum"), mk_num(0)});
  const TermPtr b = mk_pred_app("@Is", {mk_str("checksum"), mk_num(0)});
  EXPECT_EQ(a.get(), b.get());

  const TermPtr lam1 = mk_lam(5, mk_app(mk_var(5), mk_str("x")));
  const TermPtr lam2 = mk_lam(5, mk_app(mk_var(5), mk_str("x")));
  EXPECT_EQ(lam1.get(), lam2.get());

  // Different binder id => different term.
  const TermPtr lam3 = mk_lam(6, mk_app(mk_var(6), mk_str("x")));
  EXPECT_NE(lam1.get(), lam3.get());
}

TEST(Interner, HashAndIdAreStableAndInjective) {
  const TermPtr a = mk_pred_app("@Count", {mk_num(1), mk_num(2)});
  const TermPtr b = mk_pred_app("@Count", {mk_num(1), mk_num(2)});
  const TermPtr c = mk_pred_app("@Count", {mk_num(2), mk_num(1)});
  EXPECT_EQ(a->hash, b->hash);
  EXPECT_EQ(a->id, b->id);
  EXPECT_NE(a->id, c->id);  // dense ids: same structure <=> same id

  const CategoryPtr x = Category::parse("(S\\NP)/NP");
  const CategoryPtr y = Category::parse("(S\\NP)/NP");
  EXPECT_EQ(x->hash(), y->hash());
  EXPECT_EQ(x->id(), y->id());
  EXPECT_NE(x->id(), cat_S()->id());
}

TEST(Interner, InterningNewStructureGrowsTables) {
  const std::size_t cats_before = category_interner_size();
  const std::size_t terms_before = term_interner_size();
  const CategoryPtr c = Category::primitive("ZZINTERNTEST");
  const TermPtr t = mk_pred("@ZzInternTest");
  EXPECT_EQ(category_interner_size(), cats_before + 1);
  EXPECT_EQ(term_interner_size(), terms_before + 1);
  // Re-interning the same structures adds nothing.
  Category::primitive("ZZINTERNTEST");
  mk_pred("@ZzInternTest");
  EXPECT_EQ(category_interner_size(), cats_before + 1);
  EXPECT_EQ(term_interner_size(), terms_before + 1);
}

TEST(Interner, MemoBitsMatchStructure) {
  const TermPtr ground = mk_pred_app("@Is", {mk_str("a"), mk_num(1)});
  EXPECT_TRUE(ground->normal);
  EXPECT_EQ(ground->var_bloom, 0u);

  const TermPtr open = mk_app(mk_var(7), mk_num(1));
  EXPECT_TRUE(open->normal);  // head is a variable, not a lambda
  EXPECT_NE(open->var_bloom & (1ull << (7 & 63)), 0u);

  const TermPtr redex = mk_app(mk_lam(7, mk_var(7)), mk_num(1));
  EXPECT_FALSE(redex->normal);
}

// Many threads intern the same structures concurrently; every thread
// must observe the same canonical pointer, and distinct structures must
// keep distinct ids. Exercises the striped locks under TSan.
TEST(Interner, ConcurrentInternStress) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::vector<std::vector<const Term*>> shared_seen(kThreads);
  std::vector<std::vector<const Category*>> cat_seen(kThreads);
  std::atomic<int> start{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &shared_seen, &cat_seen, &start] {
      start.fetch_add(1);
      while (start.load() < kThreads) {
      }  // maximize overlap
      for (int i = 0; i < kRounds; ++i) {
        // Same structure from every thread, every round.
        const TermPtr shared = mk_lam(
            kParseVarBase + (i % 16),
            mk_pred_app("@Stress", {mk_var(kParseVarBase + (i % 16)),
                                    mk_num(i % 16)}));
        shared_seen[t].push_back(shared.get());
        const CategoryPtr cat = Category::complex(
            cat_S(), Category::Slash::kForward,
            (i % 2) == 0 ? cat_NP() : cat_N());
        cat_seen[t].push_back(cat.get());
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(shared_seen[t], shared_seen[0]) << "thread " << t;
    EXPECT_EQ(cat_seen[t], cat_seen[0]) << "thread " << t;
  }
}

TEST(Interner, VarGenIsDeterministicPerParse) {
  VarGen a;
  VarGen b;
  for (int i = 0; i < 32; ++i) {
    const int va = a.fresh();
    EXPECT_EQ(va, b.fresh());
    EXPECT_GE(va, kParseVarBase);
  }
  // The process-wide lexicon counter lives in a disjoint, lower range.
  const int lex = fresh_var();
  EXPECT_GE(lex, kLexVarBase);
  EXPECT_LT(lex, kTypeRaiseVar);
}

core::ProtocolRun process_rfc792_revised(core::Sage& sage) {
  sage.annotate_non_actionable(corpus::icmp_non_actionable_annotations());
  return sage.process(corpus::rfc792_revised(), "ICMP");
}

// Every Sage shares the process's one lexicon, so after a warm-up run a
// second fresh Sage, and its run over the same text, intern no new term
// and produce the same result.
TEST(SharedLexicon, SecondFreshSageInternsNoTerms) {
  core::Sage warm;
  const core::ProtocolRun first = process_rfc792_revised(warm);
  const std::size_t terms = term_interner_size();

  core::Sage second;
  EXPECT_EQ(term_interner_size(), terms);
  const core::ProtocolRun again = process_rfc792_revised(second);
  EXPECT_EQ(term_interner_size(), terms);

  EXPECT_EQ(&second.lexicon(), &warm.lexicon());
  EXPECT_EQ(core::protocol_run_signature(again),
            core::protocol_run_signature(first));
}

// Sages constructed on several threads at once, before any other use of
// the lexicon in this process, all see the one shared instance, and the
// one word set derived from it.
TEST(SharedLexicon, ConcurrentConstructionSeesOneLexicon) {
  constexpr int kThreads = 4;
  std::vector<const Lexicon*> seen(kThreads, nullptr);
  std::vector<const void*> words(kThreads, nullptr);
  std::atomic<int> start{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen, &words, &start] {
      start.fetch_add(1);
      while (start.load() < kThreads) {
      }  // maximize overlap
      const core::Sage sage;
      seen[t] = &sage.lexicon();
      words[t] = &corpus::lexicon_words();
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], corpus::shared_lexicon().get()) << "thread " << t;
    EXPECT_EQ(words[t], &corpus::lexicon_words()) << "thread " << t;
  }
}

}  // namespace
}  // namespace sage::ccg
