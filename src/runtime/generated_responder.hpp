// GeneratedIcmpResponder: runs SAGE-generated ICMP code inside the
// simulator (§6.2's end-to-end evaluation).
//
// The Mininet-equivalent router/host calls the sim::IcmpResponder
// interface; this implementation dispatches each event to the generated
// packet-handling function for the corresponding RFC 792 message and
// role, and returns the reply packet the generated code constructed.
// Nothing here hard-codes protocol behaviour — if the generated code is
// wrong or a function is missing, the interop tests fail.
//
// Dispatch (event -> generated function, backend choice, diagnostics)
// lives in runtime::HandlerTable, shared with GeneratedIcmp6Responder.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "codegen/ir.hpp"
#include "runtime/handler_table.hpp"
#include "runtime/vm/exec.hpp"
#include "sim/responder.hpp"

namespace sage::runtime {

class GeneratedIcmpResponder : public sim::IcmpResponder,
                               private HandlerTable {
 public:
  explicit GeneratedIcmpResponder(
      vm::ExecBackend backend = vm::ExecBackend::kThreaded);

  // Registration (add_function), introspection, and the diagnostics of
  // the most recent event (last_errors) come from the handler table.
  using HandlerTable::add_function;
  using HandlerTable::backend;
  using HandlerTable::function_count;
  using HandlerTable::has_function;
  using HandlerTable::last_errors;

  // -- sim::IcmpResponder ----------------------------------------------------
  std::optional<std::vector<std::uint8_t>> on_echo_request(
      const sim::ResponderContext& ctx) override;
  std::optional<std::vector<std::uint8_t>> on_timestamp_request(
      const sim::ResponderContext& ctx) override;
  std::optional<std::vector<std::uint8_t>> on_information_request(
      const sim::ResponderContext& ctx) override;
  std::optional<std::vector<std::uint8_t>> on_destination_unreachable(
      const sim::ResponderContext& ctx, std::uint8_t code) override;
  std::optional<std::vector<std::uint8_t>> on_time_exceeded(
      const sim::ResponderContext& ctx) override;
  std::optional<std::vector<std::uint8_t>> on_parameter_problem(
      const sim::ResponderContext& ctx, std::uint8_t pointer) override;
  std::optional<std::vector<std::uint8_t>> on_source_quench(
      const sim::ResponderContext& ctx) override;
  std::optional<std::vector<std::uint8_t>> on_redirect(
      const sim::ResponderContext& ctx, net::IpAddr gateway) override;

};

}  // namespace sage::runtime
