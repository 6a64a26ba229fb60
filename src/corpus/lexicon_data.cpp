#include "corpus/lexicon_data.hpp"

namespace sage::corpus {
namespace {

ccg::Lexicon build_lexicon() {
  ccg::Lexicon lex;
  const auto icmp = [&lex](const char* w, const char* cat, const char* sem) {
    lex.add(w, cat, sem, "icmp");
  };
  const auto igmp = [&lex](const char* w, const char* cat, const char* sem) {
    lex.add(w, cat, sem, "igmp");
  };
  const auto ntp = [&lex](const char* w, const char* cat, const char* sem) {
    lex.add(w, cat, sem, "ntp");
  };
  const auto bfd = [&lex](const char* w, const char* cat, const char* sem) {
    lex.add(w, cat, sem, "bfd");
  };

  // ===== ICMP: the 71 base entries (§6.1) ==================================
  // -- determiners (semantically vacuous) ----------------------------------- 4
  icmp("the", "NP/N", "\\x.x");
  icmp("a", "NP/N", "\\x.x");
  icmp("an", "NP/N", "\\x.x");
  // -- copulas and auxiliaries ---------------------------------------------- 8
  icmp("is", "(S\\NP)/NP", "\\x.\\y.@Is(y, x)");    // assignment (paper ex. 2)
  icmp("is", "(S\\NP)/(S\\NP)", "\\f.f");            // passive auxiliary
  icmp("are", "(S\\NP)/NP", "\\x.\\y.@Is(y, x)");
  icmp("are", "(S\\NP)/(S\\NP)", "\\f.f");
  icmp("be", "(S\\NP)/NP", "\\x.\\y.@Is(y, x)");
  icmp("be", "(S\\NP)/(S\\NP)", "\\f.f");
  icmp("will", "(S\\NP)/(S\\NP)", "\\f.f");
  icmp("should", "(S\\NP)/(S\\NP)", "\\f.f");
  // -- modals with semantics -------------------------------------------------- 2
  icmp("may", "(S\\NP)/(S\\NP)", "\\f.\\x.@May(f(x))");
  icmp("must", "(S\\NP)/(S\\NP)", "\\f.\\x.@Must(f(x))");
  // -- '=': assignment and the value-list idiom "0 = net unreachable" -------- 2
  icmp("=", "(S\\NP)/NP", "\\x.\\y.@Is(y, x)");
  icmp("=", "(S\\NP)/NP", "\\x.\\y.@Case(y, x)");
  // -- conditionals: CCG over-generates both argument orders (§4.1) ---------- 2
  icmp("if", "(S/S)/S", "\\c.\\b.@If(c, b)");
  icmp("if", "(S/S)/S", "\\c.\\b.@If(b, c)");
  // -- comma: conjunction vs separator (the §4.1 distributivity source) ------ 3
  icmp(",", "CONJ", "@And");
  icmp(",", "(S/S)\\(S/S)", "\\f.f");   // after a fronted adjunct
  icmp(",", "(S\\S)/(S\\S)", "\\f.f");  // the ", and" list idiom
  icmp(",", "NP\\NP", "\\x.x");            // parenthetical comma
  // -- conjunctions ------------------------------------------------------------ 2
  icmp("and", "CONJ", "@And");
  icmp("or", "CONJ", "@Or");
  // -- noun-phrase relators ----------------------------------------------------- 4
  icmp("of", "(NP\\NP)/NP", "\\x.\\y.@Of(y, x)");
  icmp("from", "(NP\\NP)/NP", "\\x.\\y.@Of(y, x)");
  icmp("in", "(NP\\NP)/NP", "\\x.\\y.@In(y, x)");
  icmp("plus", "(NP\\NP)/NP", "\\x.\\y.@And(y, x)");
  // -- prepositions -------------------------------------------------------------- 7
  icmp("to", "PP/NP", "\\x.x");
  icmp("with", "PP/NP", "\\x.x");
  icmp("for", "PP/NP", "\\x.x");
  icmp("in", "PP/NP", "\\x.x");
  icmp("in", "PP/Sg", "\\g.g");
  icmp("by", "PP/NP", "\\x.x");
  // -- fronted adjuncts and purpose clauses ---------------------------------------- 5
  icmp("for", "(S/S)/Sg", "\\g.\\s.@AdvBefore(g, s)");  // Figure 2's advice
  icmp("to", "(S/S)/Sg", "\\g.\\s.s");     // "To form X, ..." (absorbed)
  icmp("to", "(S/S)/Sg", "\\g.\\s.@AdvBefore(g, s)");  // over-generation
  icmp("to", "(NP\\NP)/Sg", "\\g.\\x.x");  // "an identifier to aid in ..."
  icmp("in", "(S/S)/NP", "\\x.\\s.@When(x, s)");  // "In the X message, ..."
  // -- number words ------------------------------------------------------------------ 2
  icmp("zero", "NP", "0");
  // -- gerunds --------------------------------------------------------------------- 5
  icmp("computing", "Sg/NP", "\\x.@Action(\"compute\", x)");
  icmp("matching", "Sg/NP", "\\x.@Action(\"match\", x)");
  icmp("sending", "Sg/NP", "\\x.@Action(\"send\", x)");
  icmp("form", "Sg/NP", "\\x.@Action(\"form\", x)");
  icmp("aid", "Sg/PP", "\\p.@Action(\"aid\")");
  // -- participles and verbs ---------------------------------------------------------- 17
  icmp("reversed", "S\\NP", "\\x.@Action(\"reverse\", x)");
  icmp("recomputed", "S\\NP", "\\x.@Action(\"recompute\", x)");
  icmp("computed", "S\\NP", "\\x.@Action(\"compute\", x)");
  icmp("returned", "S\\NP", "\\x.@Action(\"copy\", x)");
  icmp("returned", "(S\\NP)/PP", "\\p.\\x.@Action(\"copy\", x)");
  icmp("changed", "(S\\NP)/PP", "\\p.\\x.@Is(x, p)");
  icmp("set", "(S\\NP)/PP", "\\p.\\x.@Is(x, p)");
  icmp("set", "((S\\NP)/PP)/NP", "\\o.\\p.\\x.@Is(o, p)");
  icmp("sent", "S\\NP", "\\x.@Action(\"send\", x)");
  icmp("sent", "(S\\NP)/PP", "\\p.\\x.@Action(\"send\", x)");
  icmp("discarded", "S\\NP", "\\x.@Discard(x)");
  icmp("identifies", "(S\\NP)/NP", "\\x.\\y.@Is(y, x)");
  icmp("uses", "(S\\NP)/NP", "\\x.\\y.@Action(\"use\", y, x)");
  icmp("used", "(S\\NP)/PP", "\\p.\\x.@Action(\"use\", x)");
  icmp("assumed", "(S\\NP)/PP", "\\p.\\x.@Action(\"assume\", x)");
  icmp("means", "(S\\NP)/NP", "\\x.\\y.@Case(y, x)");
  // -- the "8 for echo message" value-list idiom ----------------------------------- 1
  icmp("for", "(S\\NP)/NP", "\\x.\\y.@Case(y, x)");
  // -- reduced-relative modifiers (absorbed restrictions) ----------------------------- 4
  icmp("received", "(NP\\NP)/PP", "\\p.\\x.x");
  icmp("starting", "(NP\\NP)/PP", "\\p.\\x.x");
  icmp("ending", "(NP\\NP)/PP", "\\p.\\x.x");
  icmp("specified", "(NP\\NP)/PP", "\\p.\\x.x");
  // -- adverbs and minor words ------------------------------------------------------------ 3
  icmp("simply", "(S\\NP)/(S\\NP)", "\\f.f");
  icmp("not", "(S\\NP)/(S\\NP)", "\\f.\\x.@Not(f(x))");
  icmp("first", "N/N", "\\x.x");
  // -- relative clauses ("the octet where an error was detected") ------------- 3
  icmp("where", "(NP\\NP)/S", "\\s.\\x.x");
  icmp("was", "(S\\NP)/(S\\NP)", "\\f.f");
  icmp("detected", "S\\NP", "\\x.@Action(\"detect\", x)");

  // ===== IGMP: +8 entries (§6.3) =============================================
  igmp("every", "NP/N", "\\x.x");
  igmp("sends", "(S\\NP)/NP", "\\x.\\y.@Send(x, y)");
  igmp("send", "(S\\NP)/NP", "\\x.\\y.@Send(x, y)");
  igmp("addressed", "(S\\NP)/PP", "\\p.\\x.@Action(\"send\", x)");
  igmp("joins", "(S\\NP)/NP", "\\x.\\y.@Action(\"use\", y, x)");
  igmp("reports", "(S\\NP)/NP", "\\x.\\y.@Send(x, y)");
  igmp("ignored", "S\\NP", "\\x.@Discard(x)");
  igmp("periodically", "(S\\NP)/(S\\NP)", "\\f.f");

  // ===== NTP: +5 entries (§6.3) ===============================================
  ntp("encapsulated", "(S\\NP)/PP", "\\p.\\x.@Action(\"send\", x)");
  ntp("calls", "(S\\NP)/NP", "\\x.\\y.@Action(\"timeout\", y, x)");
  ntp("called", "S\\NP", "\\x.@Action(\"timeout\", x)");
  ntp("expires", "S\\NP", "\\x.@Is(x, 0)");  // timer counted down to zero
  ntp("when", "(S/S)/S", "\\c.\\b.@If(c, b)");

  // ===== BFD: +15 entries (§6.4) ================================================
  bfd("nonzero", "S\\NP", "\\x.@Nonzero(x)");
  bfd("select", "(S\\NP)/NP", "\\x.\\y.@Select(x, y)");
  bfd("selected", "S\\NP", "\\x.@Select(x)");
  bfd("found", "S\\NP", "\\x.@Select(x)");
  bfd("no", "NP/N", "\\x.@Not(x)");
  bfd("up", "NP", "\"Up\"");
  bfd("down", "NP", "\"Down\"");
  bfd("init", "NP", "\"Init\"");
  bfd("admindown", "NP", "\"AdminDown\"");
  bfd("cease", "(S\\NP)/NP", "\\x.\\y.@Cease(x)");
  bfd("cease", "S\\NP", "\\x.@Cease(x)");  // "transmission MUST cease"
  bfd("ceases", "(S\\NP)/NP", "\\x.\\y.@Cease(x)");
  bfd("receives", "(S\\NP)/NP", "\\x.\\y.@Action(\"use\", y, x)");
  bfd("active", "S\\NP", "\\x.@Nonzero(x)");
  bfd("it", "NP", "\"it\"");
  // copula negation: "the State field is not Down"
  bfd("not", "((S\\NP)/NP)\\((S\\NP)/NP)", "\\v.\\x.\\y.@Not(v(x, y))");

  // ===== TCP probe (§7): the marginal additions the reach experiment
  // needs — connection-state value names only. ===============================
  const auto tcp = [&lex](const char* w, const char* cat, const char* sem) {
    lex.add(w, cat, sem, "tcp");
  };
  tcp("listen", "NP", "\"Listen\"");
  tcp("syn-received", "NP", "\"Syn-Received\"");
  tcp("established", "NP", "\"Established\"");
  tcp("close-wait", "NP", "\"Close-Wait\"");
  tcp("closed", "NP", "\"Closed\"");

  // ===== BGP probe (§7): FSM state names. ====================================
  const auto bgp = [&lex](const char* w, const char* cat, const char* sem) {
    lex.add(w, cat, sem, "bgp");
  };
  bgp("idle", "NP", "\"Idle\"");
  bgp("connect", "NP", "\"Connect\"");
  bgp("openconfirm", "NP", "\"OpenConfirm\"");

  return lex;
}

}  // namespace

std::shared_ptr<const ccg::Lexicon> shared_lexicon() {
  // A function-local static is initialised once, thread-safely; every
  // later call only reads it.
  static const auto lexicon =
      std::make_shared<const ccg::Lexicon>(build_lexicon());
  return lexicon;
}

const std::unordered_set<std::string>& lexicon_words() {
  static const auto words = [] {
    const auto list = shared_lexicon()->words();
    return std::unordered_set<std::string>(list.begin(), list.end());
  }();
  return words;
}

}  // namespace sage::corpus
