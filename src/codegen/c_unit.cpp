#include "codegen/c_unit.hpp"

#include <map>
#include <set>

#include "net/schema.hpp"
#include "util/strings.hpp"

namespace sage::codegen {

namespace {

/// What the generated functions use, with each field's and function's C
/// type decided by the packet schema of the function that uses it.
class Collector {
 public:
  // layer -> field -> is_bytes
  std::map<std::string, std::map<std::string, bool>> fields;
  // function -> is_bytes
  std::map<std::string, bool> functions;
  std::set<std::string> symbols;  // scenario constants

  void collect(const GeneratedFunction& fn) {
    schema_ = net::schema::SchemaRegistry::instance().protocol(fn.protocol);
    collect(fn.body);
  }

 private:
  void field(const FieldRef& ref) {
    fields[ref.layer][ref.field] =
        net::schema::is_bytes_field(schema_, ref.field_id);
  }

  void function(const std::string& name) {
    functions[name] = net::schema::is_bytes_function(schema_, name);
  }

  void collect(const Cond& cond) {
    if (cond.kind == Cond::Kind::kCompare) {
      collect(cond.lhs);
      collect(cond.rhs);
    }
    for (const auto& child : cond.children) collect(child);
  }

  void collect(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kField:
        field(expr.field);
        break;
      case Expr::Kind::kCall:
        function(expr.name);
        for (const auto& a : expr.args) collect(a);
        break;
      case Expr::Kind::kName: {
        const std::string id = util::to_snake_case(expr.name);
        if (id != "scenario") symbols.insert(id);
        break;
      }
      case Expr::Kind::kConst:
        break;
    }
  }

  void collect(const Stmt& stmt) {
    switch (stmt.kind) {
      case Stmt::Kind::kAssign:
        field(stmt.target);
        collect(stmt.value);
        break;
      case Stmt::Kind::kCall:
        function(stmt.fn);
        for (const auto& a : stmt.args) collect(a);
        break;
      case Stmt::Kind::kIf:
        collect(stmt.cond);
        break;
      case Stmt::Kind::kSeq:
      case Stmt::Kind::kComment:
        break;
    }
    for (const auto& child : stmt.body) collect(child);
  }

  const net::schema::ProtocolSchema* schema_ = nullptr;
};

}  // namespace

std::string c_framework_header() {
  return
      "/* sage static framework (C declarations) */\n"
      "struct sage_bytes {\n"
      "    const unsigned char *ptr;\n"
      "    unsigned long len;\n"
      "};\n\n";
}

std::string emit_compilation_unit(
    std::span<const GeneratedFunction> functions) {
  Collector collected;
  for (const auto& fn : functions) collected.collect(fn);

  std::string out = c_framework_header();

  // struct packet, built from exactly the fields the generated code uses.
  out += "struct packet {\n";
  for (const auto& [layer, fields] : collected.fields) {
    out += "    struct {\n";
    for (const auto& [field, bytes] : fields) {
      out += std::string("        ") +
             (bytes ? "struct sage_bytes " : "long ") + field + ";\n";
    }
    out += "    } " + layer + ";\n";
  }
  out += "};\n\n";

  // The event scenario the framework supplies (see §5.2's context use).
  out += "static long scenario;\n";
  long next = 1;
  for (const auto& symbol : collected.symbols) {
    out += "static const long " + symbol + " = " + std::to_string(next++) +
           ";\n";
  }
  out += "\n";

  // Framework function declarations. C99 empty parameter lists leave the
  // arity unspecified, matching the variadic way RFC text names them.
  for (const auto& [fn, bytes] : collected.functions) {
    out += std::string(bytes ? "struct sage_bytes " : "long ") + fn + "();\n";
  }
  out += "\n";

  for (const auto& fn : functions) {
    out += fn.c_source;
    out += "\n";
  }
  return out;
}

}  // namespace sage::codegen
