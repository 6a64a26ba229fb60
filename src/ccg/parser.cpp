#include "ccg/parser.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory_resource>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "lf/logical_form.hpp"
#include "util/arena.hpp"

namespace sage::ccg {

namespace {

/// One chart edge: a category with its (beta-normal) semantics, plus an
/// index into the derivation arena when derivations are recorded.
struct Edge {
  CategoryPtr cat;
  TermPtr sem;
  int id = -1;
};

/// Arena node recorded per edge while parsing. Categories and terms are
/// interned and immortal (interner.hpp), so raw pointers are safe; the
/// strings a DerivationNode needs are rendered lazily at harvest, only
/// for the subtrees that actually reach a sentence-level parse.
struct ArenaNode {
  const Category* cat = nullptr;
  const Term* sem = nullptr;
  std::string rule;
  int left = -1;
  int right = -1;
};

/// Per-cell combinability index: flat (key, edge position) pairs in
/// insertion order. Cells are capped at max_edges_per_cell (≤ ~100
/// entries), so a linear scan over a contiguous array beats a hash map
/// — no node allocations, no hashing, and probes stream one or two
/// cache lines. Ascending positions per key come for free.
using CellIndex = std::pmr::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// A chart cell: its edges plus the dedup set and combinability indexes
/// the binary-combination loop probes. All index lists hold edge
/// positions in insertion order (ascending), which is what keeps the
/// indexed enumeration in the order a full left×right scan would visit.
///
/// Allocator-aware: every vector bump-allocates from the per-thread
/// chart arena (util::Arena as a pmr resource), so vector growth never
/// touches the heap after the arena's chunks are warm. The arena's
/// deallocate is a no-op — a growing vector abandons its old block,
/// which reset() reclaims wholesale at the next parse.
struct Cell {
  using allocator_type = std::pmr::polymorphic_allocator<std::byte>;
  explicit Cell(allocator_type alloc)
      : edges(alloc),
        seen(alloc),
        by_cat(alloc),
        fwd_by_result(alloc),
        bwd_by_arg(alloc) {}

  std::pmr::vector<Edge> edges;
  /// Edge dedup: (category interner id << 32) | term interner id, one
  /// entry per edge, linearly scanned (cells are small — see CellIndex).
  /// Two derivations with the same category and semantics are
  /// interchangeable, and hash-consing makes equal structure equal id.
  std::pmr::vector<std::uint64_t> seen;
  /// Edges keyed by exact category id (forward application targets,
  /// noun-compound partners).
  CellIndex by_cat;
  /// Forward-slash edges keyed by their result's category id (X/Y edges
  /// under key id(X)) — forward-composition partners.
  CellIndex fwd_by_result;
  /// Backward-slash edges keyed by their argument's category id (X\Y
  /// edges under key id(Y)) — backward application/composition partners.
  CellIndex bwd_by_arg;
};

class Chart {
 public:
  Chart(std::size_t n, std::size_t cap, std::vector<ArenaNode>* arena,
        ParseStats* stats, std::pmr::memory_resource* mr)
      : n_(n),
        cap_(cap),
        cells_(n * n, mr),  // uses-allocator: every Cell vector gets mr
        arena_(arena),
        stats_(stats) {}

  Cell& cell(std::size_t start, std::size_t span) {
    return cells_[(span - 1) * n_ + start];
  }
  const Cell& cell(std::size_t start, std::size_t span) const {
    return cells_[(span - 1) * n_ + start];
  }

  /// Insert if the cell has room and the edge is new; returns true if
  /// added. `rule` is only invoked (to build the provenance string) when
  /// derivations are being recorded; the child ids record provenance for
  /// derivations (the first derivation of a deduplicated edge wins).
  template <typename RuleFn>
  bool add(std::size_t start, std::size_t span, Edge edge, RuleFn&& rule,
           int left = -1, int right = -1) {
    Cell& c = cell(start, span);
    if (c.edges.size() >= cap_) {
      ++stats_->cap_drops;
      return false;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(edge.cat->id()) << 32) | edge.sem->id;
    for (const std::uint64_t k : c.seen) {
      if (k == key) {
        ++stats_->dedup_hits;
        return false;
      }
    }
    c.seen.push_back(key);
    if (arena_ != nullptr) {
      arena_->push_back(
          ArenaNode{edge.cat.get(), edge.sem.get(), rule(), left, right});
      edge.id = static_cast<int>(arena_->size()) - 1;
    }
    const auto pos = static_cast<std::uint32_t>(c.edges.size());
    c.by_cat.emplace_back(edge.cat->id(), pos);
    if (!edge.cat->is_primitive()) {
      if (edge.cat->slash() == Category::Slash::kForward) {
        c.fwd_by_result.emplace_back(edge.cat->result()->id(), pos);
      } else {
        c.bwd_by_arg.emplace_back(edge.cat->arg()->id(), pos);
      }
    }
    c.edges.push_back(std::move(edge));
    ++stats_->edges_created;
    return true;
  }

 private:
  std::size_t n_;
  std::size_t cap_;
  std::pmr::vector<Cell> cells_;
  std::vector<ArenaNode>* arena_;
  ParseStats* stats_;
};

bool is_conj(const Category& c) {
  return c.is_primitive() && c.name() == "CONJ";
}

/// Generalized coordination semantics (the Φ-rule of CCG [Steedman]).
/// Coordinating two edges of category X yields, for primitive X,
///   \y. @Conj(y, r)
/// and for function categories X = (..(P|A1)|..)|An, the pointwise
///   \y. \x1...\xn. @Conj(y(x1..xn), r(x1..xn))
/// This is what makes the distributive reading of "A and B is C" emerge:
/// type-raised NPs coordinate pointwise over the verb phrase, producing
/// @And(@Is(A,C), @Is(B,C)) alongside the plain @Is(@And(A,B), C).
TermPtr coordination_sem(const TermPtr& conj_pred, const TermPtr& right_sem,
                         const Category& cat, VarGen& vg) {
  std::vector<int> vars;
  const Category* c = &cat;
  while (!c->is_primitive()) {
    vars.push_back(vg.fresh());
    c = c->result().get();
  }
  const int y = vg.fresh();
  const auto apply_chain = [&vars](TermPtr f) {
    for (int v : vars) f = mk_app(std::move(f), mk_var(v));
    return f;
  };
  TermPtr body = mk_app(mk_app(conj_pred, apply_chain(mk_var(y))),
                        apply_chain(right_sem));
  for (std::size_t i = vars.size(); i-- > 0;) {
    body = mk_lam(vars[i], std::move(body));
  }
  return mk_lam(y, std::move(body));
}

/// S\NP — cached for the type-raising target.
const CategoryPtr& cat_S_back_NP() {
  static const CategoryPtr c =
      Category::complex(cat_S(), Category::Slash::kBackward, cat_NP());
  return c;
}

/// S/(S\NP) — the type-raised category itself.
const CategoryPtr& cat_S_fwd_S_back_NP() {
  static const CategoryPtr c =
      Category::complex(cat_S(), Category::Slash::kForward, cat_S_back_NP());
  return c;
}

/// Striped process-wide memo from a term-id key to a prebuilt term —
/// same sharding scheme as the interner. Sound wherever the value is a
/// pure function of canonical inputs.
struct TermMemoShards {
  struct Shard {
    std::mutex mutex;
    std::unordered_map<std::uint64_t, TermPtr> map;
  };
  std::array<Shard, 16> shards;

  template <typename Build>
  TermPtr get(std::uint64_t key, Build&& build) {
    Shard& shard = shards[key & 15u];
    {
      std::lock_guard lock(shard.mutex);
      const auto it = shard.map.find(key);
      if (it != shard.map.end()) return it->second;
    }
    TermPtr value = build();
    std::lock_guard lock(shard.mutex);
    return shard.map.emplace(key, std::move(value)).first->second;
  }
};

/// Type-raised semantics \f.f(sem), memoized per canonical `sem`. The
/// reserved binder id keeps the term independent of where in the chart
/// the raise happens (see kTypeRaiseVar in term.hpp).
TermPtr type_raised(const TermPtr& sem) {
  static auto* memo = new TermMemoShards();  // immortal
  return memo->get(sem->id, [&] {
    return mk_lam(kTypeRaiseVar, mk_app(mk_var(kTypeRaiseVar), sem));
  });
}

/// Concatenated noun-compound semantics, memoized per (left, right) str
/// pair so repeated N-N combinations skip the string build and re-hash.
TermPtr compound_str(const TermPtr& l, const TermPtr& r) {
  static auto* memo = new TermMemoShards();  // immortal
  const std::uint64_t key = (static_cast<std::uint64_t>(l->id) << 32) | r->id;
  return memo->get(key, [&] { return mk_str(l->name + " " + r->name); });
}

/// The head-modifier analysis @Of(r, l) for the same pair.
TermPtr compound_of(const TermPtr& l, const TermPtr& r) {
  static auto* memo = new TermMemoShards();  // immortal
  const std::uint64_t key = (static_cast<std::uint64_t>(l->id) << 32) | r->id;
  return memo->get(key, [&] {
    return mk_pred_app(std::string(lf::pred::kOf), {r, l});
  });
}

/// View an immortal interned term through the TermPtr API without
/// copying or refcounting (aliasing constructor, null owner).
TermPtr unowned(const Term* t) { return TermPtr(TermPtr(), t); }

/// Copy the subtree rooted at `root` out of the shared arena into a
/// compact, self-contained Derivation, rendering the category/semantics
/// strings only now. Explicit-stack post-order walk (left subtree, right
/// subtree, node) — derivations can be deep enough on long sentences
/// that recursing per node risks the stack.
Derivation extract_derivation(const std::vector<ArenaNode>& arena, int root) {
  Derivation out;
  struct Frame {
    int index;
    int stage = 0;     // 0: visit left, 1: visit right, 2: emit
    int left_out = -1;
  };
  std::vector<Frame> stack;
  int ret = -1;  // result of the most recently completed subtree
  const auto enter = [&](int index) {
    if (index < 0 || index >= static_cast<int>(arena.size())) {
      ret = -1;
      return false;
    }
    stack.push_back(Frame{index});
    return true;
  };
  if (!enter(root)) {
    out.root = -1;
    return out;
  }
  while (!stack.empty()) {
    Frame& f = stack.back();  // invalidated by enter()==true; continue then
    const ArenaNode& node = arena[static_cast<std::size_t>(f.index)];
    if (f.stage == 0) {
      f.stage = 1;
      if (enter(node.left)) continue;
    }
    if (f.stage == 1) {
      f.left_out = ret;
      f.stage = 2;
      if (enter(node.right)) continue;
    }
    out.nodes.push_back(DerivationNode{node.cat->to_string(),
                                       term_to_string(unowned(node.sem)),
                                       node.rule, f.left_out, ret});
    ret = static_cast<int>(out.nodes.size()) - 1;
    stack.pop_back();
  }
  out.root = ret;
  return out;
}

}  // namespace

std::string Derivation::to_string() const {
  std::string out;
  // Explicit-stack pre-order render; pushing right before left keeps the
  // visit order identical to the recursive original.
  struct Frame {
    int index;
    std::string prefix;
    bool last;
  };
  std::vector<Frame> stack;
  if (root >= 0) stack.push_back(Frame{root, "", true});
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    if (f.index < 0) continue;
    const DerivationNode& node = nodes[static_cast<std::size_t>(f.index)];
    if (f.prefix.empty()) {
      out += node.category + ": " + node.semantics + "   [" + node.rule + "]\n";
    } else {
      out += f.prefix + (f.last ? "`-- " : "|-- ") + node.category + ": " +
             node.semantics + "   [" + node.rule + "]\n";
    }
    const std::string child_prefix =
        f.prefix.empty() ? std::string("  ")
                         : f.prefix + (f.last ? "    " : "|   ");
    if (node.left >= 0 && node.right >= 0) {
      stack.push_back(Frame{node.right, child_prefix, true});
      stack.push_back(Frame{node.left, child_prefix, false});
    } else if (node.left >= 0) {
      stack.push_back(Frame{node.left, child_prefix, true});
    }
  }
  return out;
}

ParseResult CcgParser::parse(const std::vector<nlp::Token>& tokens) const {
  ParseResult result;
  const std::size_t n = tokens.size();
  if (n == 0 || n > options_.max_tokens) return result;

  VarGen vg;  // per-parse: derivations and dedup ids are deterministic
  std::vector<ArenaNode> arena;
  // Per-thread chart arena: reset() rewinds it while keeping its chunks,
  // so after the first few parses warmed the chunks, chart storage costs
  // zero heap allocations per parse. Nothing that escapes parse() points
  // into it — ParseResult deep-copies forms/derivations — so resetting
  // at the next parse is safe.
  static thread_local util::Arena chart_arena;
  chart_arena.reset();
  Chart chart(n, options_.max_edges_per_cell,
              options_.record_derivations ? &arena : nullptr, &result.stats,
              &chart_arena);

  const auto reduce_or_drop = [&](TermPtr t) {
    ++result.stats.beta_reductions;
    return beta_reduce(std::move(t), 4096, &result.stats.beta_steps);
  };

  // --- lexical edges -----------------------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    const nlp::Token& tok = tokens[i];
    bool has_lexical = false;

    switch (tok.kind) {
      case nlp::TokenKind::kNounPhrase:
        // Labeled noun phrases enter the chart as N with their surface
        // text as semantics; the unary N->NP rule lifts them.
        has_lexical = true;
        chart.add(i, 1, Edge{cat_N(), mk_str(tok.lower)},
                  [&] { return "noun phrase '" + tok.text + "'"; });
        break;
      case nlp::TokenKind::kNumber:
        has_lexical = true;
        chart.add(i, 1, Edge{cat_NP(), mk_num(tok.number)},
                  [&] { return "number " + tok.text; });
        break;
      default:
        break;
    }
    for (const LexEntry& entry : lexicon_->lookup(tok.lower)) {
      has_lexical = true;
      chart.add(i, 1, Edge{entry.category, entry.semantics},
                [&] { return "lexicon '" + tok.text + "'"; });
    }
    if (!has_lexical && tok.kind != nlp::TokenKind::kPunct) {
      result.unknown_tokens.push_back(tok.text);
    }

    // Unary rules on the fresh cell.
    const std::size_t base = chart.cell(i, 1).edges.size();
    for (std::size_t k = 0; k < base; ++k) {
      const Edge e = chart.cell(i, 1).edges[k];  // copy: add() reallocates
      if (e.cat.get() == cat_N().get()) {
        chart.add(i, 1, Edge{cat_NP(), e.sem}, [] { return "N -> NP"; },
                  e.id);
      }
    }
    const std::size_t base2 = chart.cell(i, 1).edges.size();
    for (std::size_t k = 0; k < base2; ++k) {
      const Edge e = chart.cell(i, 1).edges[k];
      if (e.cat.get() == cat_NP().get()) {
        // NP -> S/(S\NP) : \f. f(x)
        chart.add(i, 1, Edge{cat_S_fwd_S_back_NP(), type_raised(e.sem)},
                  [] { return "type raising"; }, e.id);
      }
    }
  }

  // --- binary combination ------------------------------------------------
  // Applies every combinator whose guards pass, in a fixed order, so the
  // result depends only on which (left, right) pairs are visited and in
  // what order — not on how the partner edge was found.
  const auto try_combine = [&](const Edge& l, const Edge& r, std::size_t start,
                               std::size_t span) {
    // Forward application: X/Y  Y  =>  X
    if (!l.cat->is_primitive() &&
        l.cat->slash() == Category::Slash::kForward &&
        l.cat->arg().get() == r.cat.get()) {
      ++result.stats.beta_reductions;
      if (TermPtr sem = reduce_app(l.sem, r.sem, 4096,
                                   &result.stats.beta_steps)) {
        chart.add(start, span, Edge{l.cat->result(), std::move(sem)},
                  [] { return "forward application"; }, l.id, r.id);
      }
    }
    // Backward application: Y  X\Y  =>  X
    if (!r.cat->is_primitive() &&
        r.cat->slash() == Category::Slash::kBackward &&
        r.cat->arg().get() == l.cat.get()) {
      ++result.stats.beta_reductions;
      if (TermPtr sem = reduce_app(r.sem, l.sem, 4096,
                                   &result.stats.beta_steps)) {
        chart.add(start, span, Edge{r.cat->result(), std::move(sem)},
                  [] { return "backward application"; }, l.id, r.id);
      }
    }
    // Forward composition: X/Y  Y/Z  =>  X/Z
    if (!l.cat->is_primitive() && !r.cat->is_primitive() &&
        l.cat->slash() == Category::Slash::kForward &&
        r.cat->slash() == Category::Slash::kForward &&
        l.cat->arg().get() == r.cat->result().get()) {
      const int z = vg.fresh();
      if (TermPtr sem = reduce_or_drop(
              mk_lam(z, mk_app(l.sem, mk_app(r.sem, mk_var(z)))))) {
        chart.add(start, span,
                  Edge{Category::complex(l.cat->result(),
                                         Category::Slash::kForward,
                                         r.cat->arg()),
                       std::move(sem)},
                  [] { return "forward composition"; }, l.id, r.id);
      }
    }
    // Backward composition: Y\Z  X\Y  =>  X\Z
    if (!l.cat->is_primitive() && !r.cat->is_primitive() &&
        l.cat->slash() == Category::Slash::kBackward &&
        r.cat->slash() == Category::Slash::kBackward &&
        r.cat->arg().get() == l.cat->result().get()) {
      const int z = vg.fresh();
      if (TermPtr sem = reduce_or_drop(
              mk_lam(z, mk_app(r.sem, mk_app(l.sem, mk_var(z)))))) {
        chart.add(start, span,
                  Edge{Category::complex(r.cat->result(),
                                         Category::Slash::kBackward,
                                         l.cat->arg()),
                       std::move(sem)},
                  [] { return "backward composition"; }, l.id, r.id);
      }
    }
    // Noun compounding: N N => N ("echo reply" + "message" =>
    // "echo reply message"). Two adjacent bare nouns concatenate;
    // this is what lets poorly-labeled noun phrases still parse —
    // at the cost of extra attachment ambiguity (Table 7).
    if (l.cat.get() == cat_N().get() && r.cat.get() == cat_N().get() &&
        l.sem->kind == Term::Kind::kStr && r.sem->kind == Term::Kind::kStr) {
      // Both analyses the parser cannot choose between: the
      // compound as one name, and the head-modifier relation.
      chart.add(start, span, Edge{cat_N(), compound_str(l.sem, r.sem)},
                [] { return "noun compound"; }, l.id, r.id);
      chart.add(start, span, Edge{cat_N(), compound_of(l.sem, r.sem)},
                [] { return "noun compound (head)"; }, l.id, r.id);
    }
    // Coordination (binarized): CONJ X => X\X with the
    // generalized Φ semantics. The CONJ edge's semantics is the
    // bare conjunction predicate (@And / @Or).
    if (is_conj(*l.cat) && l.sem->kind == Term::Kind::kPred) {
      if (TermPtr sem =
              reduce_or_drop(coordination_sem(l.sem, r.sem, *r.cat, vg))) {
        chart.add(start, span,
                  Edge{Category::complex(r.cat, Category::Slash::kBackward,
                                         r.cat),
                       std::move(sem)},
                  [] { return "coordination"; }, l.id, r.id);
      }
    }
  };

  // Scratch: candidate right-edge slots, bump-allocated like the cells.
  std::pmr::vector<std::uint32_t> cand(&chart_arena);
  for (std::size_t span = 2; span <= n; ++span) {
    for (std::size_t start = 0; start + span <= n; ++start) {
      for (std::size_t left_span = 1; left_span < span; ++left_span) {
        const Cell& left = chart.cell(start, left_span);
        const Cell& right = chart.cell(start + left_span, span - left_span);
        for (const Edge& l : left.edges) {
          // Gather candidate partners from the right cell's indexes. Each
          // probe list is ascending by insertion; the sort+unique merge
          // restores right-cell insertion order, so cap truncation and
          // first-derivation-wins dedup see pairs in full-scan order.
          cand.clear();
          if (is_conj(*l.cat) && l.sem->kind == Term::Kind::kPred) {
            // Coordination pairs a CONJ with ANY right edge.
            cand.resize(right.edges.size());
            for (std::uint32_t k = 0; k < cand.size(); ++k) cand[k] = k;
          } else {
            const auto probe = [&](const CellIndex& index,
                                   std::uint32_t key) {
              ++result.stats.index_probes;
              for (const auto& [k, pos] : index) {
                if (k == key) cand.push_back(pos);
              }
            };
            if (!l.cat->is_primitive() &&
                l.cat->slash() == Category::Slash::kForward) {
              probe(right.by_cat, l.cat->arg()->id());  // forward application
              probe(right.fwd_by_result, l.cat->arg()->id());  // fwd comp
            }
            probe(right.bwd_by_arg, l.cat->id());  // backward application
            if (!l.cat->is_primitive() &&
                l.cat->slash() == Category::Slash::kBackward) {
              probe(right.bwd_by_arg, l.cat->result()->id());  // bwd comp
            }
            if (l.cat.get() == cat_N().get() &&
                l.sem->kind == Term::Kind::kStr) {
              probe(right.by_cat, cat_N()->id());  // noun compound
            }
            std::sort(cand.begin(), cand.end());
            cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
          }
          for (const std::uint32_t k : cand) {
            try_combine(l, right.edges[k], start, span);
          }
        }
      }

      // Unary rules on the completed cell (N -> NP; type-raise NP).
      const std::size_t base = chart.cell(start, span).edges.size();
      for (std::size_t k = 0; k < base; ++k) {
        const Edge e = chart.cell(start, span).edges[k];
        if (e.cat.get() == cat_N().get()) {
          chart.add(start, span, Edge{cat_NP(), e.sem},
                    [] { return "N -> NP"; }, e.id);
        }
      }
      if (span < n) {
        const std::size_t base2 = chart.cell(start, span).edges.size();
        for (std::size_t k = 0; k < base2; ++k) {
          const Edge e = chart.cell(start, span).edges[k];
          if (e.cat.get() == cat_NP().get()) {
            chart.add(start, span,
                      Edge{cat_S_fwd_S_back_NP(), type_raised(e.sem)},
                      [] { return "type raising"; }, e.id);
          }
        }
      }
    }
  }

  // --- harvest full-span parses -------------------------------------------
  // Dedup sets live in the chart arena too: node and string storage is
  // bump-allocated and reclaimed by the next parse's reset().
  std::pmr::unordered_set<std::pmr::string> seen_forms(&chart_arena);
  std::pmr::unordered_set<std::pmr::string> seen_fragments(&chart_arena);
  std::string render;  // reused per-candidate render buffer
  const auto render_key = [&](const lf::LogicalForm& form) {
    render.clear();
    form.append_to(render);
    return std::pmr::string(render.begin(), render.end(), &chart_arena);
  };
  for (const Edge& e : chart.cell(0, n).edges) {
    if (e.cat.get() == cat_S().get()) {
      if (auto form = term_to_logical_form(e.sem)) {
        if (seen_forms.insert(render_key(*form)).second) {
          result.forms.push_back(std::move(*form));
          if (options_.record_derivations && e.id >= 0) {
            result.derivations.push_back(extract_derivation(arena, e.id));
          }
        }
      }
    } else if (e.cat.get() == cat_NP().get() || e.cat.get() == cat_N().get()) {
      if (auto frag = term_to_logical_form(e.sem)) {
        if (seen_fragments.insert(render_key(*frag)).second) {
          result.fragments.push_back(std::move(*frag));
        }
      }
    }
  }
  result.chart_edges = result.stats.edges_created;
  result.stats.arena_bytes_reserved = chart_arena.bytes_reserved();
  result.stats.arena_high_water = chart_arena.high_water();
  result.stats.arena_resets = static_cast<std::size_t>(chart_arena.resets());
  return result;
}

}  // namespace sage::ccg
