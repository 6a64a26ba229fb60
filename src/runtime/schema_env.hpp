// Table-driven execution environment: ONE ExecEnv for every protocol,
// configured from the packet-schema registry (net/schema.hpp).
//
// This replaces the four bespoke Icmp/Igmp/Ntp/BfdExecEnv classes. A
// protocol environment is a registry entry (which layers exist, where
// fields live) plus a small per-protocol profile for the behaviors that
// are genuinely special: ICMP's deliberately-stale echo checksum and
// original-datagram excerpt, IGMP's serialize-time checksum, NTP's
// deferred UDP checksum and timeout effect, BFD's session-state storage
// and lookup effects. Everything else — field reads, writes, payload
// rows, symbols — is generic table dispatch:
//
//   read_field(ref, sel)  ->  bindings[ref.field_id]  ->  bit extraction
//
// so the interpreter hot path does no string comparisons: every FieldRef
// carries the registry id its constructor resolved, and a ref with id -1
// (not a registered field) has no binding — reads fail, writes are
// refused. Which fields and framework functions are byte-valued, and
// what a symbol means, are net::schema queries shared with codegen.
//
// Outgoing headers are kept as serialized byte images, not structs: a
// write lands the bits exactly where the wire format puts them, and
// finish()/finish_reply() emit the image directly. This is what makes
// the stale-checksum semantics fall out naturally — the checksum field
// is just bytes 2..3 of the image, emitted as generated code left them.
#pragma once

#include <cstdint>
#include <memory_resource>
#include <span>
#include <string>
#include <vector>

#include "net/bfd.hpp"
#include "net/icmp.hpp"
#include "net/igmp.hpp"
#include "net/ipv4.hpp"
#include "net/ipv6.hpp"
#include "net/ntp.hpp"
#include "net/schema.hpp"
#include "net/udp.hpp"
#include "runtime/interpreter.hpp"

namespace sage::runtime {

namespace vm {
struct EnvAccess;
}  // namespace vm

class SchemaExecEnv : public ExecEnv {
 public:
  // -- factories (one per protocol environment) ----------------------------

  /// ICMP responder environment. `raw_incoming` must start at the IP
  /// header and outlive the env. `start_from_incoming` models the
  /// reply-by-mutation idiom of RFC 792: the outgoing message starts as a
  /// byte copy of the incoming one — including its stale checksum, which
  /// is what makes the zero-before-compute advice (@AdvBefore) observable.
  static SchemaExecEnv icmp(std::span<const std::uint8_t> raw_incoming,
                            net::IpAddr own_address,
                            bool start_from_incoming = false);

  /// ICMPv6 responder environment. `raw_incoming` must start at the IPv6
  /// header. The 128-bit addresses are served to generated code as opaque
  /// long handles (reads of ip6.src/ip6.dst return a handle constant;
  /// writes resolve the handle back to the stored Ip6Addr), which is
  /// lossless because generated code only ever *moves* addresses
  /// ("out->ip6.dst = in->ip6.src"), never computes on them.
  static SchemaExecEnv icmp6(std::span<const std::uint8_t> raw_incoming,
                             net::Ip6Addr own_address,
                             bool start_from_incoming = false);

  /// DHCP environment: `message` (may be empty) is the incoming DHCP
  /// message starting at the fixed BOOTP header; bytes past offset 240
  /// are the TLV options region. The outgoing image starts as the
  /// 240-byte fixed header with schema defaults; option writes grow it.
  static SchemaExecEnv dhcp(std::span<const std::uint8_t> message = {});

  /// IGMP sender environment. `host_group` is the group a report
  /// announces (the framework's "which group am I joining" service).
  static SchemaExecEnv igmp(net::IpAddr own_address, net::IpAddr host_group);

  /// NTP sender environment (no incoming packet: the timeout procedure).
  static SchemaExecEnv ntp(net::IpAddr own_address,
                           std::uint32_t clock_seconds);

  /// NTP environment with an incoming packet: kIncoming field reads see
  /// `incoming`, kOutgoing reads see the reply under construction. (The
  /// legacy NtpExecEnv discarded PacketSel; this overload is the fix.)
  static SchemaExecEnv ntp(net::IpAddr own_address, std::uint32_t clock_seconds,
                           const net::NtpPacket& incoming);

  /// BFD reception environment: `state` receives the generated state
  /// updates; `packet` (may be null) backs the wire-field reads.
  static SchemaExecEnv bfd(net::BfdSessionState* state,
                           const net::BfdControlPacket* packet);

  /// Pure state-variable environment for the reach experiments (protocol
  /// = "TCP" or "BGP"): every kState field of the protocol's layers is a
  /// slot initialized to 0, and framework effects are recorded.
  static SchemaExecEnv state_machine(const std::string& protocol);

  // -- per-run knobs (same surface the legacy envs had) --------------------

  bool valid() const { return valid_; }
  /// ICMP: the incoming packet claimed to carry an ICMP message but ended
  /// before the 8-byte ICMP header. Field reads over the missing bytes
  /// return nullopt (short read) instead of the old silent zero-fill.
  bool input_truncated() const { return input_truncated_; }
  void set_scenario(const std::string& name);
  void set_error_pointer(std::uint8_t pointer) { error_pointer_ = pointer; }
  void set_better_gateway(net::IpAddr gateway) { better_gateway_ = gateway; }
  void set_clock(std::uint32_t now) { clock_ = now; }
  void set_session_lookup_fails(bool fails) { session_lookup_fails_ = fails; }

  bool session_selected() const { return session_selected_; }
  bool timeout_called() const { return timeout_called_; }
  bool packet_transmitted() const { return packet_transmitted_; }

  /// Effects recorded by the state_machine profile, in call order.
  const std::vector<std::string>& effects() const { return effects_; }

  // -- finalization --------------------------------------------------------

  /// ICMP: serialize the reply packet. The checksum field is emitted
  /// exactly as generated code left it in the image; when the code called
  /// compute_checksum, the framework sums the message *including* that
  /// field — stale values corrupt the sum, which is how the @AdvBefore
  /// advice's absence becomes a test failure.
  std::vector<std::uint8_t> finish_reply();

  /// IGMP / NTP: finalize the message inside IP (and UDP for NTP) to
  /// `destination`, applying the schema's serialization defaults
  /// (IGMP ttl=1; NTP port 123, ttl=64).
  std::vector<std::uint8_t> finish(net::IpAddr destination) const;

  // -- typed views for tests and the simulator -----------------------------

  const net::Ipv4Header& out_ip() const { return out_ip_; }
  const net::Ipv6Header& out_ip6() const { return out_ip6_; }
  net::IcmpMessage out_icmp() const;   // ICMP/ICMPv6: reply under construction
  /// DHCP: the message under construction (fixed header + options).
  std::vector<std::uint8_t> out_dhcp() const { return out_message_bytes(0); }
  net::IgmpMessage message() const;    // IGMP: message under construction
  net::NtpPacket packet() const;       // NTP: packet under construction
  net::UdpHeader udp() const;          // NTP: UDP header as written

  // -- ExecEnv -------------------------------------------------------------
  std::optional<long> read_field(const codegen::FieldRef& ref,
                                 codegen::PacketSel sel) override;
  bool write_field(const codegen::FieldRef& ref, long value) override;
  bool is_bytes_field(const codegen::FieldRef& ref) const override;
  std::optional<std::vector<std::uint8_t>> read_bytes(
      const codegen::FieldRef& ref, codegen::PacketSel sel) override;
  bool write_bytes(const codegen::FieldRef& ref,
                   std::vector<std::uint8_t> value) override;
  bool is_bytes_function(const std::string& fn) const override;
  std::optional<long> call_scalar(const std::string& fn,
                                  const std::vector<long>& args) override;
  std::optional<std::vector<std::uint8_t>> call_bytes(
      const std::string& fn) override;
  bool call_effect(const std::string& fn,
                   const std::vector<long>& args) override;
  long resolve_symbol(const std::string& name) override;

 private:
  /// The threaded-code backend (runtime/vm) reads the binding tables at
  /// program-compile time and the layer images / slots at execution
  /// time, through this one bridge.
  friend struct vm::EnvAccess;

  /// The handful of genuinely protocol-specific behaviors (framework
  /// functions, finalization); field access never consults this.
  enum class Profile : std::uint8_t {
    kIcmp,
    kIcmp6,
    kIgmp,
    kNtp,
    kBfd,
    kDhcp,
    kStateMachine,
  };

  /// How one registry field maps onto this env's storage.
  struct Binding {
    enum class Kind : std::uint8_t {
      kNone,           // not bound in this protocol -> nullopt/false
      kWire,           // bit range in a layer's header image
      kPayloadScalar,  // 32-bit big-endian at a payload byte offset
      kBytes,          // the payload itself
      kIp,             // IP pseudo-layer backed by Ipv4Header structs
      kState,          // generic long slot (ntp.peer_timer, tcp.*, bgp.*)
      kBfdState,       // RFC 5880 §6.8.1 variable in *bfd_state_
      kHostGroup,      // IGMP host-group service (read-only)
      kToken,          // reads as 0 ("the ICMP message")
      kWireOption,     // TLV-located field inside a layer's options region
    };
    Kind kind = Kind::kNone;
    const net::schema::FieldSpec* spec = nullptr;
    std::uint8_t layer_slot = 0;  // kWire/kPayloadScalar/kBytes: wire_ index
    std::uint8_t slot = 0;        // kState/kBfdState/kIp: accessor index
    /// icmp.pointer: a write fills the whole 32-bit rest word with
    /// value << 24 (RFC 792's "pointer + unused"), zeroing the rest.
    bool write_fills_rest_word = false;
  };

  /// Immutable per-protocol dispatch table, built once per process:
  /// binding for every registry field id, plus the image-backed layers in
  /// serialization order.
  struct ProtocolBinding {
    const net::schema::ProtocolSchema* schema = nullptr;
    Profile profile = Profile::kStateMachine;
    std::vector<Binding> by_id;
    std::vector<const net::schema::LayerSpec*> wire_layers;
    std::size_t state_slot_count = 0;
  };

  /// In/out serialized images (+ payloads) for one image-backed layer.
  /// Allocator-aware: image storage bump-allocates from the per-thread
  /// env arena (see image_arena / EnvArenaScope below), so building an
  /// env and assembling its images costs zero heap traffic once the
  /// arena's chunks are warm.
  struct LayerImages {
    using allocator_type = std::pmr::polymorphic_allocator<std::byte>;
    LayerImages() = default;
    explicit LayerImages(allocator_type alloc)
        : in_image(alloc),
          out_image(alloc),
          in_payload(alloc),
          out_payload(alloc) {}
    LayerImages(LayerImages&& other, allocator_type alloc)
        : spec(other.spec),
          has_in(other.has_in),
          has_out(other.has_out),
          in_image(std::move(other.in_image), alloc),
          out_image(std::move(other.out_image), alloc),
          in_payload(std::move(other.in_payload), alloc),
          out_payload(std::move(other.out_payload), alloc) {}
    LayerImages(LayerImages&&) = default;
    LayerImages(const LayerImages&) = default;
    LayerImages& operator=(LayerImages&&) = default;
    LayerImages& operator=(const LayerImages&) = default;

    const net::schema::LayerSpec* spec = nullptr;
    bool has_in = false;
    bool has_out = false;
    std::pmr::vector<std::uint8_t> in_image;
    std::pmr::vector<std::uint8_t> out_image;
    std::pmr::vector<std::uint8_t> in_payload;
    std::pmr::vector<std::uint8_t> out_payload;
  };

  explicit SchemaExecEnv(const ProtocolBinding& pb);

  static const ProtocolBinding& binding_for(const std::string& protocol);

  /// The binding for `ref`'s registry id; nullptr for an unregistered
  /// field (id -1).
  static const Binding* binding(const ProtocolBinding& pb,
                                const codegen::FieldRef& ref);
  void apply_image_defaults();
  const net::schema::DefaultSpec* layer_default(const std::string& layer,
                                                const std::string& field) const;
  const net::schema::DefaultSpec* ip_default(const std::string& field) const;
  std::vector<std::uint8_t> out_message_bytes(std::size_t layer_slot) const;

  std::optional<long> read_ip(std::uint8_t slot, codegen::PacketSel sel) const;
  bool write_ip(std::uint8_t slot, long value);
  std::optional<long> read_ip6(std::uint8_t slot, codegen::PacketSel sel) const;
  bool write_ip6(std::uint8_t slot, long value);
  const net::Ip6Addr* resolve_addr6(long handle) const;
  std::optional<long> read_bfd_state(std::uint8_t slot) const;
  bool write_bfd_state(std::uint8_t slot, long value);

  /// Profile-aware reverse_addresses effect body (shared by call_effect
  /// and the VM's specialized kEffectReverse op).
  void reverse_addresses_effect();

  // TLV-located field access (Binding::Kind::kWireOption). Scalar reads
  // resolve the layer's options region through a LayoutCursor; writes
  // update the option value in place when present and append a fresh
  // {code, length, value} before the end code otherwise.
  std::optional<long> read_wire_option(std::uint8_t layer_slot,
                                       const net::schema::FieldSpec& spec,
                                       codegen::PacketSel sel) const;
  bool write_wire_option(std::uint8_t layer_slot,
                         const net::schema::FieldSpec& spec, long value);
  std::optional<std::vector<std::uint8_t>> read_option_bytes(
      std::uint8_t layer_slot, const net::schema::FieldSpec& spec,
      codegen::PacketSel sel) const;
  bool write_option_bytes(std::uint8_t layer_slot,
                          const net::schema::FieldSpec& spec,
                          std::span<const std::uint8_t> value);

  std::optional<long> icmp_call_scalar(const std::string& fn,
                                       const std::vector<long>& args);
  std::optional<long> icmp6_call_scalar(const std::string& fn,
                                        const std::vector<long>& args);

  /// The thread-local arena backing every env's layer images on this
  /// thread (defined in schema_env.cpp).
  static std::pmr::memory_resource* image_arena();

  /// Depth guard for the image arena: the first env constructed on a
  /// thread (no other env alive) resets the arena, reclaiming the
  /// previous run's images while keeping the chunks. Overlapping envs —
  /// the differential harness compares two at once — share the arena and
  /// defer the reset until all of them are gone. Copies and moves of an
  /// env count as live users.
  struct EnvArenaScope {
    EnvArenaScope();
    EnvArenaScope(const EnvArenaScope&);
    EnvArenaScope& operator=(const EnvArenaScope&) { return *this; }
    ~EnvArenaScope();
  };

  const ProtocolBinding* pb_;
  Profile profile_;
  EnvArenaScope arena_scope_;  // must precede wire_: resets before allocs
  std::pmr::vector<LayerImages> wire_{image_arena()};
  std::vector<long> state_slots_;

  // ICMP: the IP layer is struct-backed (finish_reply builds the header).
  net::Ipv4Header in_ip_;
  net::Ipv4Header out_ip_;
  // ICMPv6: same idea, one version up. Generated code sees the 128-bit
  // addresses only as opaque handles (see read_ip6/write_ip6).
  net::Ipv6Header in_ip6_;
  net::Ipv6Header out_ip6_;
  net::Ip6Addr own6_;
  std::span<const std::uint8_t> raw_incoming_;
  bool valid_ = true;
  bool input_truncated_ = false;

  net::IpAddr own_address_;
  net::IpAddr host_group_;
  net::BfdSessionState* bfd_state_ = nullptr;

  std::string scenario_;
  long scenario_value_ = 0;  // util::symbol_value(scenario_), kept in sync
  std::uint8_t error_pointer_ = 0;
  net::IpAddr better_gateway_;
  std::uint32_t clock_ = 0;  // ICMP: ms since midnight UT; NTP: seconds

  bool checksum_explicitly_computed_ = false;
  bool session_selected_ = false;
  bool session_lookup_fails_ = false;
  bool timeout_called_ = false;
  bool packet_transmitted_ = false;
  std::vector<std::string> effects_;
};

}  // namespace sage::runtime
