// GeneratedIcmp6Responder: runs SAGE-generated ICMPv6 code (from the
// revised RFC 4443 corpus) behind the sim::Icmp6Responder boundary.
//
// The ICMPv6 twin of GeneratedIcmpResponder, sharing its dispatch
// (runtime::HandlerTable): each event runs the generated
// packet-handling function for the corresponding RFC 4443 message and
// role, on either execution backend (threaded-code VM or tree-walking
// interpreter). Nothing here hard-codes protocol behaviour — if the
// generated code is wrong or a function is missing, the differential
// fuzzer diverges.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "codegen/ir.hpp"
#include "runtime/handler_table.hpp"
#include "runtime/vm/exec.hpp"
#include "sim/responder6.hpp"

namespace sage::runtime {

class GeneratedIcmp6Responder : public sim::Icmp6Responder,
                                private HandlerTable {
 public:
  explicit GeneratedIcmp6Responder(
      vm::ExecBackend backend = vm::ExecBackend::kThreaded);

  // Registration (add_function), introspection, and the diagnostics of
  // the most recent event (last_errors) come from the handler table.
  using HandlerTable::add_function;
  using HandlerTable::backend;
  using HandlerTable::function_count;
  using HandlerTable::has_function;
  using HandlerTable::last_errors;

  // -- sim::Icmp6Responder ---------------------------------------------------
  std::optional<std::vector<std::uint8_t>> on_echo_request(
      const sim::Responder6Context& ctx) override;
  std::optional<std::vector<std::uint8_t>> on_destination_unreachable(
      const sim::Responder6Context& ctx, std::uint8_t code) override;
  std::optional<std::vector<std::uint8_t>> on_packet_too_big(
      const sim::Responder6Context& ctx) override;
  std::optional<std::vector<std::uint8_t>> on_time_exceeded(
      const sim::Responder6Context& ctx, std::uint8_t code) override;
  std::optional<std::vector<std::uint8_t>> on_parameter_problem(
      const sim::Responder6Context& ctx, std::uint8_t code,
      std::uint8_t pointer) override;

};

}  // namespace sage::runtime
