// Internal bridge between the VM and SchemaExecEnv's private storage.
//
// The executor's fast-path ops read and write the env's layer images and
// slots directly; the program compiler specializes against the env's
// per-protocol binding tables. Both go through this friend struct so the
// env's encapsulation boundary stays in one place. Not installed /
// included outside src/runtime/vm.
#pragma once

#include "runtime/schema_env.hpp"

namespace sage::runtime::vm {

struct EnvAccess {
  using Binding = SchemaExecEnv::Binding;
  using ProtocolBinding = SchemaExecEnv::ProtocolBinding;
  using LayerImages = SchemaExecEnv::LayerImages;
  using Profile = SchemaExecEnv::Profile;

  static const ProtocolBinding& binding_for(const std::string& protocol) {
    return SchemaExecEnv::binding_for(protocol);
  }

  /// The env's own binding lookup, at program-compile time (the tables
  /// are immutable).
  static const Binding* plan(const ProtocolBinding& pb,
                             const codegen::FieldRef& ref) {
    return SchemaExecEnv::binding(pb, ref);
  }

  static const void* binding_key(const SchemaExecEnv& env) { return env.pb_; }

  static std::pmr::vector<LayerImages>& wire(SchemaExecEnv& env) {
    return env.wire_;
  }
  static std::vector<long>& state(SchemaExecEnv& env) {
    return env.state_slots_;
  }
  static std::optional<long> read_ip(const SchemaExecEnv& env,
                                     std::uint8_t slot, codegen::PacketSel sel) {
    return env.read_ip(slot, sel);
  }
  static bool write_ip(SchemaExecEnv& env, std::uint8_t slot, long value) {
    return env.write_ip(slot, value);
  }
  static std::optional<long> read_bfd_state(const SchemaExecEnv& env,
                                            std::uint8_t slot) {
    return env.read_bfd_state(slot);
  }
  static bool write_bfd_state(SchemaExecEnv& env, std::uint8_t slot,
                              long value) {
    return env.write_bfd_state(slot, value);
  }
  static long host_group(const SchemaExecEnv& env) {
    return static_cast<long>(env.host_group_.value());
  }
  static long scenario_value(const SchemaExecEnv& env) {
    return env.scenario_value_;
  }

  // Specialized-effect bodies (kEffect* ops). Each mirrors one branch of
  // SchemaExecEnv::call_effect exactly; the compiler only emits the op
  // for the (profile, name) pairs where that branch is trivial.
  static void set_checksum_computed(SchemaExecEnv& env) {
    env.checksum_explicitly_computed_ = true;
  }
  static void reverse_addresses(SchemaExecEnv& env) {
    env.reverse_addresses_effect();
  }
  static void set_timeout_called(SchemaExecEnv& env) {
    env.timeout_called_ = true;
  }

  // TLV-located fields (Binding::Kind::kWireOption): kPushOption /
  // kStoreOption route through the env's option machinery — the region
  // scan is not worth inlining into the executor.
  static std::optional<long> read_option(const SchemaExecEnv& env,
                                         std::uint8_t layer_slot,
                                         const net::schema::FieldSpec& spec,
                                         codegen::PacketSel sel) {
    return env.read_wire_option(layer_slot, spec, sel);
  }
  static bool write_option(SchemaExecEnv& env, std::uint8_t layer_slot,
                           const net::schema::FieldSpec& spec, long value) {
    return env.write_wire_option(layer_slot, spec, value);
  }
};

}  // namespace sage::runtime::vm
