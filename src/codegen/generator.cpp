#include "codegen/generator.hpp"

#include "net/schema.hpp"
#include "util/strings.hpp"

namespace sage::codegen {

namespace {

/// Post-pass over one sentence's converted code, against the protocol's
/// schema: precomputes every kName value, so neither backend looks
/// symbols up per run ("scenario" stays a runtime lookup: its value is
/// per run), and records the first field reference that names no
/// registry field.
class SchemaPass {
 public:
  explicit SchemaPass(const net::schema::ProtocolSchema* schema)
      : schema_(schema) {}

  void visit(Stmt& stmt) {
    if (stmt.kind == Stmt::Kind::kAssign) {
      note(stmt.target);
      visit(stmt.value);
    }
    for (auto& a : stmt.args) visit(a);
    if (stmt.kind == Stmt::Kind::kIf) visit(stmt.cond);
    for (auto& child : stmt.body) visit(child);
  }

  /// "layer.field" of the first unresolved ref; empty when all resolved.
  const std::string& unresolved() const { return unresolved_; }

 private:
  void note(const FieldRef& ref) {
    if (ref.field_id < 0 && unresolved_.empty()) unresolved_ = ref.to_string();
  }

  void visit(Expr& expr) {
    if (expr.kind == Expr::Kind::kField) note(expr.field);
    if (expr.kind == Expr::Kind::kName &&
        util::to_lower(expr.name) != "scenario") {
      expr.symbol_cached = true;
      expr.symbol_cache = net::schema::symbol_value(schema_, expr.name);
    }
    for (auto& a : expr.args) visit(a);
  }

  void visit(Cond& cond) {
    if (cond.kind == Cond::Kind::kCompare) {
      visit(cond.lhs);
      visit(cond.rhs);
    }
    for (auto& child : cond.children) visit(child);
  }

  const net::schema::ProtocolSchema* schema_;
  std::string unresolved_;
};

/// Does this statement (tree) contain a checksum computation call?
bool contains_checksum_call(const Stmt& stmt) {
  if (stmt.kind == Stmt::Kind::kCall &&
      (stmt.fn == "compute_checksum" || stmt.fn == "recompute_checksum")) {
    return true;
  }
  for (const auto& s : stmt.body) {
    if (contains_checksum_call(s)) return true;
  }
  return false;
}

}  // namespace

std::string CodeGenerator::function_name(const std::string& protocol,
                                         const std::string& message,
                                         const std::string& role) {
  std::string msg = message;
  // "Destination Unreachable Message" -> "destination_unreachable".
  const std::string suffix = " Message";
  if (util::ends_with(msg, suffix)) {
    msg = msg.substr(0, msg.size() - suffix.size());
  }
  return util::to_snake_case(protocol) + "_" + util::to_snake_case(msg) + "_" +
         util::to_snake_case(role);
}

GenerationOutcome CodeGenerator::generate(
    const std::string& protocol, const std::string& message,
    const std::string& role, std::span<const SentenceLf> sentences) const {
  GenerationOutcome outcome;
  const auto* schema =
      net::schema::SchemaRegistry::instance().protocol(protocol);

  std::vector<Stmt> main_body;
  std::vector<Stmt> advice;  // @AdvBefore statements, hoisted later

  for (const auto& s : sentences) {
    // Pre-processing: @AdvComment forms generate no code (§5.2).
    if (s.form.is_predicate(lf::pred::kAdvComment)) {
      Stmt c = Stmt::comment(s.sentence.empty() ? "non-actionable"
                                                : s.sentence);
      main_body.push_back(std::move(c));
      continue;
    }

    DynamicContext ctx = s.context;
    ctx.role = role;
    const ResolutionContext resolution(ctx, statics_);
    LfConverter converter(&resolution, registry_);

    const bool is_advice = s.form.is_predicate(lf::pred::kAdvBefore);
    const lf::LfNode& to_convert =
        is_advice && s.form.args.size() == 2 ? s.form.args[1] : s.form;

    auto stmt = converter.to_stmt(to_convert);
    if (!stmt) {
      outcome.failed_sentences.push_back(s.sentence);
      outcome.diagnostics.push_back(
          converter.errors().empty()
              ? "no handler produced code for " + s.form.to_string()
              : converter.errors().back());
      continue;
    }
    // Fold symbols, and fail the sentence like a form that does not
    // convert if its code names a field the registry does not have.
    SchemaPass pass(schema);
    pass.visit(*stmt);
    if (!pass.unresolved().empty()) {
      outcome.failed_sentences.push_back(s.sentence);
      outcome.diagnostics.push_back("unresolved field " + pass.unresolved());
      continue;
    }
    stmt->text = s.sentence;  // provenance
    if (is_advice) {
      advice.push_back(std::move(*stmt));
    } else {
      main_body.push_back(std::move(*stmt));
    }
  }

  // Advice processing (§5.2): @AdvBefore statements execute before the
  // function they advise — here, before the checksum computation the
  // sentence order would otherwise place first.
  std::vector<Stmt> body;
  bool advice_inserted = advice.empty();
  for (auto& stmt : main_body) {
    if (!advice_inserted && contains_checksum_call(stmt)) {
      for (auto& a : advice) body.push_back(std::move(a));
      advice_inserted = true;
    }
    body.push_back(std::move(stmt));
  }
  if (!advice_inserted) {
    // No checksum call found: advice still runs, ahead of everything.
    std::vector<Stmt> prefixed;
    for (auto& a : advice) prefixed.push_back(std::move(a));
    for (auto& s : body) prefixed.push_back(std::move(s));
    body = std::move(prefixed);
  }

  GeneratedFunction fn;
  fn.name = function_name(protocol, message, role);
  fn.protocol = protocol;
  fn.message = message;
  fn.role = role;
  fn.body = Stmt::seq(std::move(body));

  fn.c_source = emit_function(fn);
  outcome.function = std::move(fn);
  return outcome;
}

}  // namespace sage::codegen
