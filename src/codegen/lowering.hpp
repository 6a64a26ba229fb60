// Lowering pass: generated Stmt trees -> flat linear programs.
//
// The static-framework interpreter (src/runtime/interpreter.cpp) walks
// the IR tree per packet; dispatch overhead dominates the responder hot
// path now that the packet path itself is zero-copy. compile_to_program()
// flattens a GeneratedFunction once into a contiguous instruction array:
// control flow becomes explicit jumps (If/And/Or/Not short-circuit
// lowered to kJumpIfFalse/kJumpIfTrue), kName symbols are resolved to
// inline constants at compile time (reusing the generator's symbol caches;
// only the per-run "scenario" alias stays a runtime op), and every field
// access carries its resolved registry id.
//
// This is the codegen half of the threaded-code backend: the linear
// program is still protocol-agnostic (field ops reference FieldRefs, not
// storage). runtime/vm/program.cpp specializes it against a protocol's
// binding table into directly executable ops (docs/EXECUTION.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "codegen/ir.hpp"

namespace sage::codegen {

/// Process-wide execution counters for the generated-code backends:
/// how many handler programs were
/// compiled (and their footprint), how much work the threaded VM did,
/// and how many statements the tree interpreter stepped. Exposed on
/// core::ProtocolRun and by sage_debug --parse-stats.
struct ExecStats {
  std::size_t programs_compiled = 0;   // vm programs built
  std::size_t program_bytes = 0;       // code + side tables, bytes
  std::size_t ops_executed = 0;        // vm instructions retired
  std::size_t slow_path_entries = 0;   // vm ops that left the flat path
  std::size_t tree_stmts_executed = 0; // tree-interpreter statements
};

ExecStats exec_stats();
void reset_exec_stats();

/// Counter hooks (called by the runtime backends; relaxed atomics).
void note_program_compiled(std::size_t bytes);
void note_vm_execution(std::size_t ops, std::size_t slow_entries);
void note_tree_execution(std::size_t stmts);

/// Linear-program opcode (protocol-agnostic; see docs/EXECUTION.md for
/// the executable vocabulary this lowers into).
enum class LinOp : std::uint8_t {
  kHalt,         // end of program
  kPushConst,    // push imm
  kPushField,    // push field read: a=PacketSel, b=ref index
  kPushScenario, // push the per-run scenario symbol value
  kCallScalar,   // a=arg count, b=name index; pops args, pushes result
  kCmp,          // a=CmpOp; pops rhs,lhs, pushes 0/1
  kJump,         // ip = c
  kJumpIfFalse,  // pop; if 0 -> ip = c
  kJumpIfTrue,   // pop; if nonzero -> ip = c
  kStoreField,   // pop value into field: b=ref index
  kAssignBytes,  // bytes assignment: a=BytesSrc|sel<<4, b=src idx, c=target ref
  kCallEffect,   // a=arg count, b=name index; pops args
};

/// Value source of a bytes assignment (kAssignBytes.a low nibble).
enum class BytesSrc : std::uint8_t { kField, kCall, kNone };

/// One fixed-size linear instruction. Operand meaning is per-op; imm
/// holds inline constants (and, after runtime specialization, baked
/// schema FieldSpec pointers).
struct LinInsn {
  LinOp op = LinOp::kHalt;
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t c = 0;
  std::int64_t imm = 0;
};

/// A field access recorded in the side table: the ref (with its resolved
/// id) plus the packet selector, kept for slow-path dispatch and for
/// building the tree-identical error messages lazily.
struct FieldUse {
  FieldRef ref;
  PacketSel sel = PacketSel::kIncoming;
};

/// The flat form of one GeneratedFunction.
struct LinearProgram {
  std::string function_name;
  std::string protocol;
  std::vector<LinInsn> code;     // ends with kHalt
  std::vector<FieldUse> refs;    // kPushField/kStoreField/kAssignBytes operands
  std::vector<std::string> names;  // framework-function names
  std::uint32_t max_stack = 0;   // value-stack high water, in slots
};

/// Lower `fn.body` to a linear program against `fn.protocol`'s schema.
/// Deterministic and total: every tree shape lowers (unknown fields and
/// unwritable targets become ops that fail exactly like the tree
/// interpreter's env calls do).
LinearProgram compile_to_program(const GeneratedFunction& fn);

}  // namespace sage::codegen
