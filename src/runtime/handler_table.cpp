#include "runtime/handler_table.hpp"

#include "codegen/generator.hpp"

namespace sage::runtime {

HandlerTable::HandlerTable(vm::ExecBackend backend, const std::string& protocol,
                           std::initializer_list<Event> events,
                           std::string undecodable)
    : backend_(backend),
      bound_(events.size(), kUnbound),
      undecodable_(std::move(undecodable)) {
  names_.reserve(events.size());
  for (const Event& e : events) {
    names_.push_back(
        codegen::CodeGenerator::function_name(protocol, e.message, e.role));
  }
}

void HandlerTable::add_function(codegen::GeneratedFunction fn) {
  Entry entry;
  if (backend_ == vm::ExecBackend::kThreaded) {
    entry.program = vm::compile(fn);
  }
  entry.fn = std::move(fn);
  const auto [it, inserted] = by_name_.emplace(entry.fn.name, entries_.size());
  if (inserted) {
    entries_.push_back(std::move(entry));
  } else {
    entries_[it->second] = std::move(entry);
  }
  for (std::size_t e = 0; e < names_.size(); ++e) {
    if (names_[e] == it->first) bound_[e] = it->second;
  }
}

SchemaExecEnv HandlerTable::make_env(const sim::ResponderContext& ctx,
                                     bool start_from_incoming) {
  return SchemaExecEnv::icmp(ctx.triggering_packet, ctx.own_address,
                             start_from_incoming);
}

SchemaExecEnv HandlerTable::make_env(const sim::Responder6Context& ctx,
                                     bool start_from_incoming) {
  return SchemaExecEnv::icmp6(ctx.triggering_packet, ctx.own_address,
                              start_from_incoming);
}

std::optional<std::vector<std::uint8_t>> HandlerTable::execute(
    const Entry& entry, SchemaExecEnv& env) {
  const ExecResult result = entry.program.has_value()
                                ? vm::execute(*entry.program, env)
                                : interpreter_.run(entry.fn.body, env);
  if (!result.ok) {
    last_errors_ = result.errors;
    return std::nullopt;
  }
  return env.finish_reply();
}

}  // namespace sage::runtime
