// HandlerTable: the dispatch table behind the generated-code responders
// (GeneratedIcmpResponder, GeneratedIcmp6Responder).
//
// A responder names its simulator events once, as (RFC message, role)
// pairs; the table derives each event's function name at construction
// and binds the event when add_function() registers that name, so a
// dispatch is a vector index — no name string or map lookup per packet.
//
// Each function executes on one of two backends (vm::ExecBackend): the
// threaded-code VM (default; compiled once at registration) or the
// tree-walking reference interpreter. Both produce byte-identical
// replies and diagnostics; tests/test_vm_differential.cpp enforces it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "codegen/ir.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/schema_env.hpp"
#include "runtime/vm/exec.hpp"
#include "runtime/vm/program.hpp"
#include "sim/responder.hpp"
#include "sim/responder6.hpp"

namespace sage::runtime {

class HandlerTable {
 public:
  /// One simulator event: the RFC message and role whose generated
  /// function handles it (CodeGenerator::function_name's inputs).
  struct Event {
    const char* message;
    const char* role;
  };

  /// `protocol` prefixes the function names ("ICMP", "ICMP6");
  /// `undecodable` is the diagnostic for a triggering packet the env
  /// cannot decode. Events are addressed by their index in `events`.
  HandlerTable(vm::ExecBackend backend, const std::string& protocol,
               std::initializer_list<Event> events, std::string undecodable);

  /// Register a generated function (keyed by its context-derived name).
  /// On the threaded backend this is where the one-time compilation to
  /// flat code happens; re-registering a name replaces the handler.
  void add_function(codegen::GeneratedFunction fn);

  vm::ExecBackend backend() const { return backend_; }
  bool has_function(const std::string& name) const {
    return by_name_.count(name) != 0;
  }
  std::size_t function_count() const { return by_name_.size(); }

  /// Execution diagnostics from the most recent run().
  const std::vector<std::string>& last_errors() const { return last_errors_; }

  /// Run event `event`'s handler on the packet in `ctx`, in an env with
  /// `scenario` set and `setup` applied; nullopt (with a diagnostic) if
  /// no function is bound, the packet is undecodable, or execution
  /// failed.
  template <typename Context, typename Setup = void (*)(SchemaExecEnv&)>
  std::optional<std::vector<std::uint8_t>> run(
      std::size_t event, const Context& ctx, bool start_from_incoming,
      const std::string& scenario, Setup setup = [](SchemaExecEnv&) {}) {
    last_errors_.clear();
    const std::size_t slot = bound_[event];
    if (slot == kUnbound) {
      last_errors_.push_back("no generated function named " + names_[event]);
      return std::nullopt;
    }
    SchemaExecEnv env = make_env(ctx, start_from_incoming);
    if (!env.valid()) {
      last_errors_.push_back(undecodable_);
      return std::nullopt;
    }
    env.set_scenario(scenario);
    setup(env);
    return execute(entries_[slot], env);
  }

 private:
  static constexpr std::size_t kUnbound = static_cast<std::size_t>(-1);

  /// One registered handler: the IR tree (reference backend, and the
  /// fallback when a program exceeds VM limits) plus its compiled form.
  struct Entry {
    codegen::GeneratedFunction fn;
    std::optional<vm::Program> program;
  };

  static SchemaExecEnv make_env(const sim::ResponderContext& ctx,
                                bool start_from_incoming);
  static SchemaExecEnv make_env(const sim::Responder6Context& ctx,
                                bool start_from_incoming);
  std::optional<std::vector<std::uint8_t>> execute(const Entry& entry,
                                                   SchemaExecEnv& env);

  vm::ExecBackend backend_;
  std::vector<std::string> names_;   // per event: its function's name
  std::vector<std::size_t> bound_;   // per event: index into entries_
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> by_name_;  // name -> entries_ index
  std::string undecodable_;
  Interpreter interpreter_;
  std::vector<std::string> last_errors_;
};

}  // namespace sage::runtime
