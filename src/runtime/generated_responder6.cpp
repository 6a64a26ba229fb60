#include "runtime/generated_responder6.hpp"

#include <map>

namespace sage::runtime {

namespace {

/// The five RFC 4443 events, in the order of the table built below.
enum Event : std::size_t {
  kEcho,
  kDestinationUnreachable,
  kPacketTooBig,
  kTimeExceeded,
  kParameterProblem,
};

}  // namespace

GeneratedIcmp6Responder::GeneratedIcmp6Responder(vm::ExecBackend backend)
    : HandlerTable(backend, "ICMP6",
                   {
                       {"Echo or Echo Reply Message", "receiver"},
                       {"Destination Unreachable Message", "sender"},
                       {"Packet Too Big Message", "sender"},
                       {"Time Exceeded Message", "sender"},
                       {"Parameter Problem Message", "sender"},
                   },
                   "triggering packet is not decodable IPv6") {}

std::optional<std::vector<std::uint8_t>>
GeneratedIcmp6Responder::on_echo_request(const sim::Responder6Context& ctx) {
  return run(kEcho, ctx, /*start_from_incoming=*/true, "echo reply message");
}

std::optional<std::vector<std::uint8_t>>
GeneratedIcmp6Responder::on_destination_unreachable(
    const sim::Responder6Context& ctx, std::uint8_t code) {
  static const std::map<std::uint8_t, std::string> kScenario = {
      {0, "no route to destination"},
      {1, "communication with destination administratively prohibited"},
      {2, "beyond scope of source address"},
      {3, "address unreachable"},
      {4, "port unreachable"},
  };
  const auto it = kScenario.find(code);
  return run(
      kDestinationUnreachable, ctx, /*start_from_incoming=*/false,
      it == kScenario.end() ? "no route to destination" : it->second);
}

std::optional<std::vector<std::uint8_t>>
GeneratedIcmp6Responder::on_packet_too_big(const sim::Responder6Context& ctx) {
  return run(kPacketTooBig, ctx, /*start_from_incoming=*/false,
             "packet too big");
}

std::optional<std::vector<std::uint8_t>>
GeneratedIcmp6Responder::on_time_exceeded(const sim::Responder6Context& ctx,
                                          std::uint8_t code) {
  return run(kTimeExceeded, ctx, /*start_from_incoming=*/false,
             code == 1 ? "fragment reassembly time exceeded"
                  : "hop limit exceeded in transit");
}

std::optional<std::vector<std::uint8_t>>
GeneratedIcmp6Responder::on_parameter_problem(const sim::Responder6Context& ctx,
                                              std::uint8_t code,
                                              std::uint8_t pointer) {
  static const std::map<std::uint8_t, std::string> kScenario = {
      {0, "erroneous header field encountered"},
      {1, "unrecognized next header type encountered"},
      {2, "unrecognized ipv6 option encountered"},
  };
  const auto it = kScenario.find(code);
  return run(
      kParameterProblem, ctx, /*start_from_incoming=*/false,
      it == kScenario.end() ? "erroneous header field encountered"
                            : it->second,
      [pointer](SchemaExecEnv& env) { env.set_error_pointer(pointer); });
}

}  // namespace sage::runtime
