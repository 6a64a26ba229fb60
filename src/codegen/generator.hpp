// The code generator (§5.2 "Logical Forms to Code").
//
// Assembles winnowed, per-sentence logical forms into packet-handling
// functions: one per (protocol, message, role). Pre-processing filters
// @AdvComment forms; conversion runs the post-order handler traversal;
// advice processing hoists @AdvBefore statements ahead of the checksum
// computation; and naming/role separation follows the context
// dictionaries.
//
// Sentences whose logical form fails conversion — or converts to code
// that names a field the packet-schema registry does not have — are
// reported back: that is the signal driving the paper's "iterative
// discovery of non-actionable sentences" loop (the core pipeline re-tags
// them @AdvComment and reruns).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "codegen/context.hpp"
#include "codegen/emitter.hpp"
#include "codegen/handlers.hpp"
#include "codegen/ir.hpp"
#include "lf/logical_form.hpp"

namespace sage::codegen {

/// One sentence ready for code generation: its (single) winnowed logical
/// form plus dynamic context.
struct SentenceLf {
  lf::LogicalForm form;
  DynamicContext context;
  std::string sentence;  // original text, for provenance/comments
};

/// Outcome of generating one function.
struct GenerationOutcome {
  std::optional<GeneratedFunction> function;
  /// Sentences whose LF could not be converted (code-generation
  /// failures); candidates for @AdvComment tagging.
  std::vector<std::string> failed_sentences;
  /// Conversion diagnostics, aligned with failed_sentences.
  std::vector<std::string> diagnostics;
};

class CodeGenerator {
 public:
  CodeGenerator(const StaticContext* statics, const HandlerRegistry* registry)
      : statics_(statics), registry_(registry) {}

  /// Generate the handler function for (protocol, message, role) from the
  /// given sentences (in document order, per §5.2's ordering rule).
  GenerationOutcome generate(const std::string& protocol,
                             const std::string& message,
                             const std::string& role,
                             std::span<const SentenceLf> sentences) const;

  /// Function name derived from the context dictionaries (§5.2: "sage
  /// uses the context to generate unique names for the function, based on
  /// the protocol, the message type, and the role").
  static std::string function_name(const std::string& protocol,
                                   const std::string& message,
                                   const std::string& role);

 private:
  const StaticContext* statics_;
  const HandlerRegistry* registry_;
};

}  // namespace sage::codegen
