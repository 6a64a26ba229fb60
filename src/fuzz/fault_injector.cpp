#include "fuzz/fault_injector.hpp"

#include <cstdlib>

namespace sage::fuzz {

std::string FaultPlan::to_string() const {
  std::string out;
  const auto add = [&out](const char* name, unsigned pct) {
    if (pct == 0) return;
    if (!out.empty()) out += ",";
    out += name;
    out += "=";
    out += std::to_string(pct);
  };
  add("loss", loss);
  add("dup", dup);
  add("reorder", reorder);
  add("delay", delay);
  add("corrupt", corrupt);
  return out.empty() ? "none" : out;
}

std::optional<FaultPlan> FaultPlan::parse(const std::string& spec,
                                          std::string* error) {
  FaultPlan plan;
  if (spec.empty() || spec == "none") return plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string part = spec.substr(pos, comma - pos);
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos) {
      if (error != nullptr) *error = "expected knob=pct, got '" + part + "'";
      return std::nullopt;
    }
    const std::string knob = part.substr(0, eq);
    char* end = nullptr;
    const unsigned long pct = std::strtoul(part.c_str() + eq + 1, &end, 10);
    if (end == part.c_str() + eq + 1 || *end != '\0' || pct > 100) {
      if (error != nullptr) *error = "bad percentage in '" + part + "'";
      return std::nullopt;
    }
    if (knob == "loss") plan.loss = static_cast<unsigned>(pct);
    else if (knob == "dup") plan.dup = static_cast<unsigned>(pct);
    else if (knob == "reorder") plan.reorder = static_cast<unsigned>(pct);
    else if (knob == "delay") plan.delay = static_cast<unsigned>(pct);
    else if (knob == "corrupt") plan.corrupt = static_cast<unsigned>(pct);
    else {
      if (error != nullptr) *error = "unknown fault knob '" + knob + "'";
      return std::nullopt;
    }
    pos = comma + 1;
  }
  return plan;
}

void FaultyNetwork::put_on_wire(const std::string& host,
                                std::span<const std::uint8_t> packet,
                                bool via_router) {
  if (via_router) {
    net_.send_from_host_via_router(host, packet);
  } else {
    net_.send_from_host(host, packet);
  }
  if (swap_hold_) {
    Held held = std::move(*swap_hold_);
    swap_hold_.reset();
    // The held packet follows the one that overtook it.
    put_on_wire(held.host, held.packet, held.via_router);
  }
}

void FaultyNetwork::send(const std::string& host,
                         std::span<const std::uint8_t> packet,
                         bool via_router) {
  // Knobs are drawn in a fixed order; identical plans and seeds on two
  // wrappers therefore transform identical traffic identically.
  if (plan_.loss > 0 && rng_.chance(plan_.loss)) return;
  if (plan_.corrupt > 0 && !packet.empty() && rng_.chance(plan_.corrupt)) {
    // Corrupt in the reused scratch slab; the caller's bytes stay intact.
    scratch_.assign(packet.begin(), packet.end());
    const std::size_t pos = rng_.below(scratch_.size());
    scratch_[pos] ^= static_cast<std::uint8_t>(1 + rng_.below(255));
    packet = scratch_;
  }
  const bool duplicate = plan_.dup > 0 && rng_.chance(plan_.dup);
  if (plan_.delay > 0 && rng_.chance(plan_.delay)) {
    delayed_.push_back({host, {packet.begin(), packet.end()}, via_router});
    return;
  }
  if (plan_.reorder > 0 && rng_.chance(plan_.reorder)) {
    // Hold until the next transmission passes it (or flush).
    if (swap_hold_) {
      Held previous = std::move(*swap_hold_);
      swap_hold_ = Held{host, {packet.begin(), packet.end()}, via_router};
      put_on_wire(previous.host, previous.packet, previous.via_router);
    } else {
      swap_hold_ = Held{host, {packet.begin(), packet.end()}, via_router};
    }
    return;
  }
  // Duplication re-sends the same span — the network interns each copy
  // into its arena; no temporary vector is built here.
  put_on_wire(host, packet, via_router);
  if (duplicate) put_on_wire(host, packet, via_router);
}

void FaultyNetwork::flush() {
  if (swap_hold_) {
    Held held = std::move(*swap_hold_);
    swap_hold_.reset();
    put_on_wire(held.host, held.packet, held.via_router);
  }
  std::vector<Held> pending = std::move(delayed_);
  delayed_.clear();
  if (pending.empty()) return;
  // Delay faults are genuine future-time events, not a post-hoc replay:
  // the packet sits in the queue until the simulated clock reaches its
  // release time. Strictly increasing release times keep each cascade
  // whole (see header).
  std::uint64_t at = kDelayNs;
  for (const auto& held : pending) {
    net_.schedule_from_host(held.host, held.packet, at, held.via_router);
    at += kDelaySpacingNs;
  }
  net_.run();
}

}  // namespace sage::fuzz
