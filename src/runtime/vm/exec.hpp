// Threaded-code executor for compiled handler programs.
//
// Two dispatch loops over the same op handlers: a computed-goto loop
// (GCC/Clang `&&label` tables, one indirect jump per op) and a portable
// switch loop. The switch loop is ALWAYS compiled — it is the reference
// dispatcher and the fallback for toolchains without the extension — and
// tests exercise it explicitly via DispatchMode::kSwitch, so a build
// where it rotted fails fast.
//
// Execution semantics are bit-for-bit those of the tree interpreter
// (runtime/interpreter.cpp): same env accesses in the same order, same
// error strings in the same order. docs/EXECUTION.md spells out the
// contract; test_vm.cpp and test_vm_differential.cpp enforce it.
#pragma once

#include <array>
#include <cstdint>

#include "runtime/interpreter.hpp"
#include "runtime/vm/program.hpp"

namespace sage::runtime {
class SchemaExecEnv;
}  // namespace sage::runtime

namespace sage::runtime::vm {

/// Which backend executes a generated handler. kTree is the original
/// Stmt-walking interpreter, kept verbatim as the reference
/// implementation; kThreaded runs the compiled flat program.
enum class ExecBackend : std::uint8_t { kTree, kThreaded };

/// Dispatcher selection inside the threaded backend. kDefault picks
/// computed goto when the toolchain has it; requesting kComputedGoto
/// without support falls back to the switch loop.
enum class DispatchMode : std::uint8_t { kDefault, kComputedGoto, kSwitch };

/// True when this build carries the computed-goto dispatcher.
bool have_computed_goto();

/// Run `program` against `env`. The env must be bound to the same
/// protocol table the program was specialized for (the responder wiring
/// guarantees this; a mismatch returns a failed result, never UB).
ExecResult execute(const Program& program, SchemaExecEnv& env,
                   DispatchMode mode = DispatchMode::kDefault);

/// Per-op retirement counters (sage_debug --parse-stats). Off by
/// default; counting adds one relaxed atomic add per op.
void set_op_counting(bool enabled);
std::array<std::uint64_t, kNumOps> op_counts();
void reset_op_counts();

}  // namespace sage::runtime::vm
