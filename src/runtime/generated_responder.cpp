#include "runtime/generated_responder.hpp"

#include <map>

namespace sage::runtime {

namespace {

/// The eight RFC 792 events, in the order of the table built below.
enum Event : std::size_t {
  kEcho,
  kTimestamp,
  kInformation,
  kDestinationUnreachable,
  kTimeExceeded,
  kParameterProblem,
  kSourceQuench,
  kRedirect,
};

}  // namespace

GeneratedIcmpResponder::GeneratedIcmpResponder(vm::ExecBackend backend)
    : HandlerTable(backend, "ICMP",
                   {
                       {"Echo or Echo Reply Message", "receiver"},
                       {"Timestamp or Timestamp Reply Message", "receiver"},
                       {"Information Request or Information Reply Message",
                        "receiver"},
                       {"Destination Unreachable Message", "sender"},
                       {"Time Exceeded Message", "sender"},
                       {"Parameter Problem Message", "sender"},
                       {"Source Quench Message", "sender"},
                       {"Redirect Message", "sender"},
                   },
                   "triggering packet is not decodable IPv4") {}

std::optional<std::vector<std::uint8_t>> GeneratedIcmpResponder::on_echo_request(
    const sim::ResponderContext& ctx) {
  return run(kEcho, ctx, /*start_from_incoming=*/true, "echo reply message");
}

std::optional<std::vector<std::uint8_t>>
GeneratedIcmpResponder::on_timestamp_request(const sim::ResponderContext& ctx) {
  return run(kTimestamp, ctx, /*start_from_incoming=*/true,
             "timestamp reply message");
}

std::optional<std::vector<std::uint8_t>>
GeneratedIcmpResponder::on_information_request(
    const sim::ResponderContext& ctx) {
  return run(kInformation, ctx, /*start_from_incoming=*/true,
             "information reply message");
}

std::optional<std::vector<std::uint8_t>>
GeneratedIcmpResponder::on_destination_unreachable(
    const sim::ResponderContext& ctx, std::uint8_t code) {
  static const std::map<std::uint8_t, std::string> kScenario = {
      {0, "net unreachable"},      {1, "host unreachable"},
      {2, "protocol unreachable"}, {3, "port unreachable"},
      {4, "fragmentation needed and df set"},
      {5, "source route failed"},
  };
  const auto it = kScenario.find(code);
  return run(kDestinationUnreachable, ctx,
             /*start_from_incoming=*/false,
             it == kScenario.end() ? "net unreachable" : it->second);
}

std::optional<std::vector<std::uint8_t>>
GeneratedIcmpResponder::on_time_exceeded(const sim::ResponderContext& ctx) {
  return run(kTimeExceeded, ctx, /*start_from_incoming=*/false,
             "time to live exceeded in transit");
}

std::optional<std::vector<std::uint8_t>>
GeneratedIcmpResponder::on_parameter_problem(const sim::ResponderContext& ctx,
                                             std::uint8_t pointer) {
  return run(
      kParameterProblem, ctx, /*start_from_incoming=*/false,
      "pointer indicates the error",
      [pointer](SchemaExecEnv& env) { env.set_error_pointer(pointer); });
}

std::optional<std::vector<std::uint8_t>>
GeneratedIcmpResponder::on_source_quench(const sim::ResponderContext& ctx) {
  return run(kSourceQuench, ctx, /*start_from_incoming=*/false,
             "source quench");
}

std::optional<std::vector<std::uint8_t>> GeneratedIcmpResponder::on_redirect(
    const sim::ResponderContext& ctx, net::IpAddr gateway) {
  return run(
      kRedirect, ctx, /*start_from_incoming=*/false,
      "redirect datagrams for the host",
      [gateway](SchemaExecEnv& env) { env.set_better_gateway(gateway); });
}

}  // namespace sage::runtime
