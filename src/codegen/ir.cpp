#include "codegen/ir.hpp"

#include "net/schema.hpp"

namespace sage::codegen {

FieldRef::FieldRef(std::string layer_name, std::string field_name)
    : layer(std::move(layer_name)), field(std::move(field_name)) {
  if (const auto* spec =
          net::schema::SchemaRegistry::instance().field(layer, field)) {
    field_id = spec->id;
  }
}

std::size_t Stmt::executable_count() const {
  switch (kind) {
    case Kind::kAssign:
    case Kind::kCall:
      return 1;
    case Kind::kComment:
      return 0;
    case Kind::kIf:
    case Kind::kSeq: {
      std::size_t n = kind == Kind::kIf ? 1 : 0;
      for (const auto& s : body) n += s.executable_count();
      return n;
    }
  }
  return 0;
}

}  // namespace sage::codegen
