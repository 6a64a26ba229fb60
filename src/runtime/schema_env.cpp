#include "runtime/schema_env.hpp"

#include <algorithm>
#include <unordered_map>

#include "net/checksum.hpp"
#include "util/arena.hpp"
#include "util/bytes.hpp"
#include "util/strings.hpp"
#include "util/symbols.hpp"

namespace sage::runtime {

namespace schema = net::schema;

namespace {

/// Live SchemaExecEnv count on this thread (see EnvArenaScope).
thread_local std::size_t g_env_depth = 0;

util::Arena& env_arena() {
  static thread_local util::Arena arena;
  return arena;
}

}  // namespace

std::pmr::memory_resource* SchemaExecEnv::image_arena() {
  return &env_arena();
}

SchemaExecEnv::EnvArenaScope::EnvArenaScope() {
  if (g_env_depth == 0) env_arena().reset();
  ++g_env_depth;
}

SchemaExecEnv::EnvArenaScope::EnvArenaScope(const EnvArenaScope&) {
  ++g_env_depth;
}

SchemaExecEnv::EnvArenaScope::~EnvArenaScope() { --g_env_depth; }

namespace {

/// RFC 5880 §6.8.1 variables in slot order; must match
/// read_bfd_state/write_bfd_state below.
constexpr const char* kBfdStateOrder[] = {
    "session_state",           "remote_session_state",
    "local_discr",             "remote_discr",
    "local_diag",              "desired_min_tx_interval",
    "required_min_rx_interval", "remote_min_rx_interval",
    "demand_mode",             "remote_demand_mode",
    "detect_mult",             "auth_type",
};

/// Struct-backed IP pseudo-layer in slot order; must match
/// read_ip/write_ip below.
constexpr const char* kIpSlotOrder[] = {"src", "dst", "ttl", "tos",
                                        "total_length"};

/// Struct-backed IPv6 pseudo-layer in slot order; must match
/// read_ip6/write_ip6 below. The writable fields sit in slots 0..3 —
/// the VM's kStoreIp specialization serves exactly that range.
constexpr const char* kIp6SlotOrder[] = {
    "src",     "dst",        "hop_limit",      "traffic_class",
    "version", "flow_label", "payload_length", "next_header"};

/// Opaque ip6 address handles (see read_ip6). Values sit far outside any
/// wire field's masked range, so a handle accidentally stored into a
/// scalar is visibly wrong instead of silently plausible.
constexpr long kAddr6HandleBase = 0x6B600000000L;
constexpr long kH6InSrc = kAddr6HandleBase + 0;
constexpr long kH6InDst = kAddr6HandleBase + 1;
constexpr long kH6OutSrc = kAddr6HandleBase + 2;
constexpr long kH6OutDst = kAddr6HandleBase + 3;
constexpr long kH6Own = kAddr6HandleBase + 4;

int index_in(const char* const* names, std::size_t n, const std::string& name) {
  for (std::size_t i = 0; i < n; ++i) {
    if (name == names[i]) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

const SchemaExecEnv::ProtocolBinding& SchemaExecEnv::binding_for(
    const std::string& protocol) {
  static const std::unordered_map<std::string, ProtocolBinding>* tables = [] {
    const auto& registry = schema::SchemaRegistry::instance();
    auto* t = new std::unordered_map<std::string, ProtocolBinding>();
    for (const auto& p : registry.protocols()) {
      ProtocolBinding pb;
      pb.schema = &p;
      pb.profile = p.protocol == "ICMP"    ? Profile::kIcmp
                   : p.protocol == "ICMP6" ? Profile::kIcmp6
                   : p.protocol == "IGMP"  ? Profile::kIgmp
                   : p.protocol == "NTP"   ? Profile::kNtp
                   : p.protocol == "BFD"   ? Profile::kBfd
                   : p.protocol == "DHCP"  ? Profile::kDhcp
                                           : Profile::kStateMachine;
      pb.by_id.resize(registry.field_count());
      for (const auto& layer_name : p.layers) {
        const auto* layer = registry.layer(layer_name);
        if (layer == nullptr) continue;
        if (layer->name == "ip" || layer->name == "ip6") {
          // Struct-backed pseudo-layers: only the fields the framework
          // serves are bound; the rest stay kNone (unknown at runtime).
          // Both versions share Binding::Kind::kIp — read_ip/write_ip
          // dispatch on the env's profile, and a protocol only ever
          // binds one of the two layers.
          const bool v6 = layer->name == "ip6";
          const char* const* order = v6 ? kIp6SlotOrder : kIpSlotOrder;
          const std::size_t order_n =
              v6 ? std::size(kIp6SlotOrder) : std::size(kIpSlotOrder);
          for (const auto& f : layer->fields) {
            const int slot = index_in(order, order_n, f.name);
            if (slot < 0) continue;
            auto& b = pb.by_id[static_cast<std::size_t>(f.id)];
            b.kind = Binding::Kind::kIp;
            b.spec = &f;
            b.slot = static_cast<std::uint8_t>(slot);
          }
          continue;
        }
        const bool image_backed = layer->header_bytes > 0;
        std::uint8_t layer_slot = 0;
        if (image_backed) {
          layer_slot = static_cast<std::uint8_t>(pb.wire_layers.size());
          pb.wire_layers.push_back(layer);
        }
        for (const auto& f : layer->fields) {
          auto& b = pb.by_id[static_cast<std::size_t>(f.id)];
          b.spec = &f;
          b.layer_slot = layer_slot;
          // Location trumps kind for storage: TLV-located fields (DHCP
          // option scalars and whole option values) live in the layer's
          // options region, whatever they are typed as.
          if (f.loc == schema::FieldLoc::kTlvOption ||
              f.loc == schema::FieldLoc::kLengthPrefixed) {
            b.kind = Binding::Kind::kWireOption;
            continue;
          }
          switch (f.kind) {
            case schema::FieldKind::kScalar:
              b.kind = Binding::Kind::kWire;
              b.write_fills_rest_word =
                  layer->name == "icmp" && f.name == "pointer";
              break;
            case schema::FieldKind::kPayloadScalar:
              b.kind = Binding::Kind::kPayloadScalar;
              break;
            case schema::FieldKind::kBytes:
              b.kind = Binding::Kind::kBytes;
              break;
            case schema::FieldKind::kState: {
              if (layer->name == "bfd") {
                const int slot = index_in(
                    kBfdStateOrder, std::size(kBfdStateOrder), f.name);
                if (slot >= 0) {
                  b.kind = Binding::Kind::kBfdState;
                  b.slot = static_cast<std::uint8_t>(slot);
                  break;
                }
              }
              if (f.name == "host_group_address") {
                b.kind = Binding::Kind::kHostGroup;
                break;
              }
              b.kind = Binding::Kind::kState;
              b.slot = static_cast<std::uint8_t>(pb.state_slot_count++);
              break;
            }
            case schema::FieldKind::kToken:
            case schema::FieldKind::kVirtual:
              // Virtual fields share the token binding: readable tokens
              // read as 0, and write_is_noop virtuals (icmp.unused)
              // accept-and-discard writes.
              b.kind = Binding::Kind::kToken;
              break;
          }
        }
      }
      t->emplace(p.protocol, std::move(pb));
    }
    return t;
  }();
  const auto it = tables->find(protocol);
  if (it != tables->end()) return it->second;
  static const ProtocolBinding* empty = [] {
    auto* pb = new ProtocolBinding();
    pb->by_id.resize(schema::SchemaRegistry::instance().field_count());
    return pb;
  }();
  return *empty;
}

SchemaExecEnv::SchemaExecEnv(const ProtocolBinding& pb)
    : pb_(&pb), profile_(pb.profile) {
  scenario_value_ = util::symbol_value(scenario_);
  wire_.resize(pb.wire_layers.size());
  for (std::size_t i = 0; i < wire_.size(); ++i) {
    const auto* layer = pb.wire_layers[i];
    wire_[i].spec = layer;
    bool writable = false;
    for (const auto& f : layer->fields) {
      if (f.writable && !f.write_is_noop &&
          f.kind != schema::FieldKind::kState &&
          f.kind != schema::FieldKind::kVirtual) {
        writable = true;
        break;
      }
    }
    if (writable) {
      wire_[i].has_out = true;
      wire_[i].out_image.assign(layer->header_bytes, 0);
    }
  }
  state_slots_.assign(pb.state_slot_count, 0);
  apply_image_defaults();
}

void SchemaExecEnv::apply_image_defaults() {
  if (pb_->schema == nullptr) return;
  for (const auto& d : pb_->schema->defaults) {
    for (auto& L : wire_) {
      if (!L.has_out || L.spec->name != d.layer) continue;
      const auto* spec =
          schema::SchemaRegistry::instance().field(d.layer, d.field);
      if (spec != nullptr) {
        schema::SchemaRegistry::write_scalar(*spec, L.out_image, d.value);
      }
    }
  }
}

const schema::DefaultSpec* SchemaExecEnv::layer_default(
    const std::string& layer, const std::string& field) const {
  if (pb_->schema == nullptr) return nullptr;
  for (const auto& d : pb_->schema->defaults) {
    if (d.layer == layer && d.field == field) return &d;
  }
  return nullptr;
}

const schema::DefaultSpec* SchemaExecEnv::ip_default(
    const std::string& field) const {
  return layer_default("ip", field);
}

// -- factories --------------------------------------------------------------

SchemaExecEnv SchemaExecEnv::icmp(std::span<const std::uint8_t> raw_incoming,
                                  net::IpAddr own_address,
                                  bool start_from_incoming) {
  SchemaExecEnv env(binding_for("ICMP"));
  env.raw_incoming_ = raw_incoming;
  env.own_address_ = own_address;
  env.clock_ = 36000000;  // deterministic OS clock (ms since midnight UT)

  auto& icmp_layer = env.wire_[0];
  icmp_layer.has_in = true;

  const auto ip = net::Ipv4Header::parse(raw_incoming);
  if (!ip) {
    env.valid_ = false;
    icmp_layer.in_image.assign(icmp_layer.spec->header_bytes, 0);
    return env;
  }
  env.in_ip_ = *ip;
  bool in_has_icmp = false;
  const bool trigger_is_icmp =
      ip->protocol == static_cast<std::uint8_t>(net::IpProto::kIcmp);
  if (start_from_incoming && trigger_is_icmp) {
    const auto icmp_bytes = raw_incoming.subspan(ip->header_length());
    if (icmp_bytes.size() >= 8) {
      icmp_layer.in_image.assign(icmp_bytes.begin(), icmp_bytes.begin() + 8);
      icmp_layer.in_payload.assign(icmp_bytes.begin() + 8, icmp_bytes.end());
      in_has_icmp = true;
    } else {
      // Truncated ICMP message on a receiver path (reply-by-mutation):
      // keep only the bytes that exist. Reads whose bit range falls past
      // the end report a short read (nullopt) instead of fabricating
      // zeros from a full-size blank image, so no reply is built from
      // invented field values.
      icmp_layer.in_image.assign(icmp_bytes.begin(), icmp_bytes.end());
      env.input_truncated_ = true;
    }
  } else {
    // Error-sender flows (any trigger) and non-ICMP receivers: RFC 792's
    // field prose ("if code = 0, ...") describes the error message under
    // construction, not the offending datagram, so the message view is a
    // blank image. The offending datagram stays reachable through the ip
    // layer and the header+64-bits excerpt (raw_incoming_).
    icmp_layer.in_image.assign(icmp_layer.spec->header_bytes, 0);
    if (trigger_is_icmp &&
        raw_incoming.subspan(ip->header_length()).size() < 8) {
      env.input_truncated_ = true;
    }
  }
  if (const auto* d = env.ip_default("protocol")) {
    env.out_ip_.protocol = static_cast<std::uint8_t>(d->value);
  }
  if (const auto* d = env.ip_default("ttl")) {
    env.out_ip_.ttl = static_cast<std::uint8_t>(d->value);
  }
  env.out_ip_.src = own_address;
  if (start_from_incoming && in_has_icmp) {
    // Reply-by-mutation (RFC 792): the outgoing message starts as a byte
    // copy of the request — the request's checksum included, stale on
    // purpose.
    icmp_layer.out_image = icmp_layer.in_image;
    icmp_layer.out_payload = icmp_layer.in_payload;
  }
  return env;
}

SchemaExecEnv SchemaExecEnv::icmp6(std::span<const std::uint8_t> raw_incoming,
                                   net::Ip6Addr own_address,
                                   bool start_from_incoming) {
  SchemaExecEnv env(binding_for("ICMP6"));
  env.raw_incoming_ = raw_incoming;
  env.own6_ = own_address;
  env.clock_ = 36000000;  // deterministic OS clock (ms since midnight UT)

  auto& layer = env.wire_[0];
  layer.has_in = true;

  const auto ip6 = net::Ipv6Header::parse(raw_incoming);
  if (!ip6) {
    env.valid_ = false;
    layer.in_image.assign(layer.spec->header_bytes, 0);
    return env;
  }
  env.in_ip6_ = *ip6;
  bool in_has_icmp6 = false;
  const bool trigger_is_icmp6 = ip6->next_header == net::kIpProtoIcmp6;
  const auto icmp6_bytes = raw_incoming.subspan(net::Ipv6Header::kHeaderBytes);
  if (start_from_incoming && trigger_is_icmp6) {
    if (icmp6_bytes.size() >= 8) {
      layer.in_image.assign(icmp6_bytes.begin(), icmp6_bytes.begin() + 8);
      layer.in_payload.assign(icmp6_bytes.begin() + 8, icmp6_bytes.end());
      in_has_icmp6 = true;
    } else {
      // Truncated ICMPv6 message on a receiver path: keep only the bytes
      // that exist, so short reads surface instead of invented zeros
      // (same contract as the v4 factory).
      layer.in_image.assign(icmp6_bytes.begin(), icmp6_bytes.end());
      env.input_truncated_ = true;
    }
  } else {
    // Error-sender flows and non-ICMPv6 triggers: the message view is
    // the error message under construction, so it starts blank; the
    // offending packet stays reachable through the ip6 layer and the
    // invoking-packet excerpt (raw_incoming_).
    layer.in_image.assign(layer.spec->header_bytes, 0);
    if (trigger_is_icmp6 && icmp6_bytes.size() < 8) {
      env.input_truncated_ = true;
    }
  }
  // ip6 serialization defaults land on the struct-backed header — the
  // analogue of apply_image_defaults for image layers.
  if (const auto* d = env.layer_default("ip6", "next_header")) {
    env.out_ip6_.next_header = static_cast<std::uint8_t>(d->value);
  }
  if (const auto* d = env.layer_default("ip6", "hop_limit")) {
    env.out_ip6_.hop_limit = static_cast<std::uint8_t>(d->value);
  }
  env.out_ip6_.src = own_address;
  if (start_from_incoming && in_has_icmp6) {
    // Reply-by-mutation: the outgoing message starts as a byte copy of
    // the request, stale checksum included (RFC 792 idiom carried over).
    layer.out_image = layer.in_image;
    layer.out_payload = layer.in_payload;
  }
  return env;
}

SchemaExecEnv SchemaExecEnv::dhcp(std::span<const std::uint8_t> message) {
  SchemaExecEnv env(binding_for("DHCP"));
  if (!message.empty()) {
    auto& L = env.wire_[0];
    L.has_in = true;
    L.in_image.assign(message.begin(), message.end());
    if (message.size() < L.spec->header_bytes) env.input_truncated_ = true;
  }
  return env;
}

SchemaExecEnv SchemaExecEnv::igmp(net::IpAddr own_address,
                                  net::IpAddr host_group) {
  SchemaExecEnv env(binding_for("IGMP"));
  env.own_address_ = own_address;
  env.host_group_ = host_group;
  return env;
}

SchemaExecEnv SchemaExecEnv::ntp(net::IpAddr own_address,
                                 std::uint32_t clock_seconds) {
  SchemaExecEnv env(binding_for("NTP"));
  env.own_address_ = own_address;
  env.clock_ = clock_seconds;
  return env;
}

SchemaExecEnv SchemaExecEnv::ntp(net::IpAddr own_address,
                                 std::uint32_t clock_seconds,
                                 const net::NtpPacket& incoming) {
  SchemaExecEnv env = ntp(own_address, clock_seconds);
  for (auto& L : env.wire_) {
    if (L.spec->name == "ntp") {
      L.has_in = true;
      const auto bytes = incoming.serialize();
      L.in_image.assign(bytes.begin(), bytes.end());
    }
  }
  return env;
}

SchemaExecEnv SchemaExecEnv::bfd(net::BfdSessionState* state,
                                 const net::BfdControlPacket* packet) {
  SchemaExecEnv env(binding_for("BFD"));
  env.bfd_state_ = state;
  if (packet != nullptr) {
    auto& L = env.wire_[0];
    L.has_in = true;
    const auto bytes = packet->serialize();
    L.in_image.assign(bytes.begin(), bytes.end());
  }
  return env;
}

SchemaExecEnv SchemaExecEnv::state_machine(const std::string& protocol) {
  return SchemaExecEnv(binding_for(protocol));
}

// -- field dispatch ---------------------------------------------------------

const SchemaExecEnv::Binding* SchemaExecEnv::binding(
    const ProtocolBinding& pb, const codegen::FieldRef& ref) {
  const auto id = static_cast<std::size_t>(ref.field_id);
  return ref.field_id < 0 || id >= pb.by_id.size() ? nullptr : &pb.by_id[id];
}

std::optional<long> SchemaExecEnv::read_field(const codegen::FieldRef& ref,
                                              codegen::PacketSel sel) {
  const Binding* b = binding(*pb_, ref);
  if (b == nullptr || b->kind == Binding::Kind::kNone) return std::nullopt;
  const auto& spec = *b->spec;
  if (!spec.readable) return std::nullopt;
  switch (b->kind) {
    case Binding::Kind::kWire: {
      const LayerImages& L = wire_[b->layer_slot];
      // Honor the selector when both packets exist; environments that
      // only hold one side (IGMP/NTP senders) serve it for either
      // selector, matching the single-message view they model.
      const std::pmr::vector<std::uint8_t>* img =
          sel == codegen::PacketSel::kIncoming
              ? (L.has_in ? &L.in_image : (L.has_out ? &L.out_image : nullptr))
              : (L.has_out ? &L.out_image : (L.has_in ? &L.in_image : nullptr));
      if (img == nullptr) return std::nullopt;
      return schema::SchemaRegistry::read_scalar(spec, *img);
    }
    case Binding::Kind::kPayloadScalar: {
      const LayerImages& L = wire_[b->layer_slot];
      const bool from_incoming =
          sel == codegen::PacketSel::kIncoming ? L.has_in : !L.has_out;
      const std::pmr::vector<std::uint8_t>& pl =
          from_incoming ? L.in_payload : L.out_payload;
      if (pl.size() < spec.payload_offset + 4) {
        // An outgoing block that has not been written yet reads as 0 (it
        // is under construction); an incoming packet that ends before the
        // field is a short read, not a zero.
        if (from_incoming) return std::nullopt;
        return 0;
      }
      return static_cast<long>(
          util::get_be32({pl.data() + spec.payload_offset, 4}));
    }
    case Binding::Kind::kIp:
      return read_ip(b->slot, sel);
    case Binding::Kind::kState:
      return state_slots_[b->slot];
    case Binding::Kind::kBfdState:
      return read_bfd_state(b->slot);
    case Binding::Kind::kHostGroup:
      return static_cast<long>(host_group_.value());
    case Binding::Kind::kToken:
      return 0;
    case Binding::Kind::kWireOption:
      return read_wire_option(b->layer_slot, spec, sel);
    case Binding::Kind::kBytes:
    case Binding::Kind::kNone:
      return std::nullopt;
  }
  return std::nullopt;
}

bool SchemaExecEnv::write_field(const codegen::FieldRef& ref, long value) {
  const Binding* b = binding(*pb_, ref);
  if (b == nullptr || b->kind == Binding::Kind::kNone) return false;
  const auto& spec = *b->spec;
  if (!spec.writable) return false;
  if (spec.write_is_noop) return true;
  switch (b->kind) {
    case Binding::Kind::kWire: {
      LayerImages& L = wire_[b->layer_slot];
      if (!L.has_out) return false;
      if (b->write_fills_rest_word) {
        // RFC 792 pointer: the write owns the whole rest word —
        // value << 24, unused octets zeroed.
        util::put_be32({L.out_image.data() + 4, 4},
                       static_cast<std::uint32_t>(
                           static_cast<std::uint8_t>(value))
                           << 24);
        return true;
      }
      return schema::SchemaRegistry::write_scalar(spec, L.out_image, value);
    }
    case Binding::Kind::kPayloadScalar: {
      LayerImages& L = wire_[b->layer_slot];
      if (!L.has_out) return false;
      // The payload-scalar block (the three ICMP timestamps) is sized as
      // a unit, matching the message format.
      std::size_t block = 0;
      for (const auto& f : L.spec->fields) {
        if (f.kind == schema::FieldKind::kPayloadScalar) {
          block = std::max<std::size_t>(block, f.payload_offset + 4);
        }
      }
      if (L.out_payload.size() < block) L.out_payload.resize(block, 0);
      util::put_be32({L.out_payload.data() + spec.payload_offset, 4},
                     static_cast<std::uint32_t>(value));
      return true;
    }
    case Binding::Kind::kIp:
      return write_ip(b->slot, value);
    case Binding::Kind::kState:
      state_slots_[b->slot] = value;
      return true;
    case Binding::Kind::kBfdState:
      return write_bfd_state(b->slot, value);
    case Binding::Kind::kWireOption:
      return write_wire_option(b->layer_slot, spec, value);
    case Binding::Kind::kHostGroup:
    case Binding::Kind::kToken:
    case Binding::Kind::kBytes:
    case Binding::Kind::kNone:
      return false;
  }
  return false;
}

std::optional<long> SchemaExecEnv::read_ip(std::uint8_t slot,
                                           codegen::PacketSel sel) const {
  // Kind::kIp covers both struct-backed pseudo-layers; the profile says
  // which one this env actually carries (a protocol binds only one).
  if (profile_ == Profile::kIcmp6) return read_ip6(slot, sel);
  const net::Ipv4Header& ip =
      sel == codegen::PacketSel::kIncoming ? in_ip_ : out_ip_;
  switch (slot) {
    case 0: return static_cast<long>(ip.src.value());
    case 1: return static_cast<long>(ip.dst.value());
    case 2: return ip.ttl;
    case 3: return ip.tos;
    case 4: return ip.total_length;
    default: return std::nullopt;
  }
}

bool SchemaExecEnv::write_ip(std::uint8_t slot, long value) {
  if (profile_ == Profile::kIcmp6) return write_ip6(slot, value);
  switch (slot) {
    case 0: out_ip_.src = net::IpAddr(static_cast<std::uint32_t>(value)); return true;
    case 1: out_ip_.dst = net::IpAddr(static_cast<std::uint32_t>(value)); return true;
    case 2: out_ip_.ttl = static_cast<std::uint8_t>(value); return true;
    case 3: out_ip_.tos = static_cast<std::uint8_t>(value); return true;
    default: return false;
  }
}

std::optional<long> SchemaExecEnv::read_ip6(std::uint8_t slot,
                                            codegen::PacketSel sel) const {
  const bool incoming = sel == codegen::PacketSel::kIncoming;
  const net::Ipv6Header& ip = incoming ? in_ip6_ : out_ip6_;
  switch (slot) {
    // The 128-bit addresses read as opaque handles; write_ip6 resolves
    // them back to the stored Ip6Addr. Generated code only ever moves
    // these values between address fields, so the round trip is lossless.
    case 0: return incoming ? kH6InSrc : kH6OutSrc;
    case 1: return incoming ? kH6InDst : kH6OutDst;
    case 2: return ip.hop_limit;
    case 3: return ip.traffic_class;
    case 4: return ip.version;
    case 5: return static_cast<long>(ip.flow_label);
    case 6: return ip.payload_length;
    case 7: return ip.next_header;
    default: return std::nullopt;
  }
}

const net::Ip6Addr* SchemaExecEnv::resolve_addr6(long handle) const {
  if (handle == kH6InSrc) return &in_ip6_.src;
  if (handle == kH6InDst) return &in_ip6_.dst;
  if (handle == kH6OutSrc) return &out_ip6_.src;
  if (handle == kH6OutDst) return &out_ip6_.dst;
  if (handle == kH6Own) return &own6_;
  return nullptr;
}

bool SchemaExecEnv::write_ip6(std::uint8_t slot, long value) {
  switch (slot) {
    case 0:
    case 1: {
      const net::Ip6Addr* addr = resolve_addr6(value);
      if (addr == nullptr) return false;  // not an address handle
      const net::Ip6Addr resolved = *addr;  // copy: target may alias
      (slot == 0 ? out_ip6_.src : out_ip6_.dst) = resolved;
      return true;
    }
    case 2: out_ip6_.hop_limit = static_cast<std::uint8_t>(value); return true;
    case 3: out_ip6_.traffic_class = static_cast<std::uint8_t>(value); return true;
    default: return false;
  }
}

void SchemaExecEnv::reverse_addresses_effect() {
  if (profile_ == Profile::kIcmp6) {
    out_ip6_.src = in_ip6_.dst;
    out_ip6_.dst = in_ip6_.src;
    return;
  }
  out_ip_.src = in_ip_.dst;
  out_ip_.dst = in_ip_.src;
}

std::optional<long> SchemaExecEnv::read_bfd_state(std::uint8_t slot) const {
  const auto& s = *bfd_state_;
  switch (slot) {
    case 0: return static_cast<long>(s.session_state);
    case 1: return static_cast<long>(s.remote_session_state);
    case 2: return static_cast<long>(s.local_discr);
    case 3: return static_cast<long>(s.remote_discr);
    case 4: return static_cast<long>(s.local_diag);
    case 5: return static_cast<long>(s.desired_min_tx_interval);
    case 6: return static_cast<long>(s.required_min_rx_interval);
    case 7: return static_cast<long>(s.remote_min_rx_interval);
    case 8: return s.demand_mode ? 1 : 0;
    case 9: return s.remote_demand_mode ? 1 : 0;
    case 10: return s.detect_mult;
    case 11: return s.auth_type;
    default: return std::nullopt;
  }
}

bool SchemaExecEnv::write_bfd_state(std::uint8_t slot, long value) {
  auto& s = *bfd_state_;
  switch (slot) {
    case 0: s.session_state = static_cast<net::BfdState>(value); return true;
    case 1: s.remote_session_state = static_cast<net::BfdState>(value); return true;
    case 2: s.local_discr = static_cast<std::uint32_t>(value); return true;
    case 3: s.remote_discr = static_cast<std::uint32_t>(value); return true;
    case 4: s.local_diag = static_cast<net::BfdDiag>(value); return true;
    case 5: s.desired_min_tx_interval = static_cast<std::uint32_t>(value); return true;
    case 6: s.required_min_rx_interval = static_cast<std::uint32_t>(value); return true;
    case 7: s.remote_min_rx_interval = static_cast<std::uint32_t>(value); return true;
    case 8: s.demand_mode = value != 0; return true;
    case 9: s.remote_demand_mode = value != 0; return true;
    case 10: s.detect_mult = static_cast<std::uint8_t>(value); return true;
    case 11: s.auth_type = static_cast<std::uint8_t>(value); return true;
    default: return false;
  }
}

// -- TLV option storage (Binding::Kind::kWireOption) ------------------------

namespace {

/// Selects the image a read should see: the selector is honored when
/// both packets exist, single-sided envs serve their one image for
/// either selector (same rule as the kWire path). Templated so the
/// env's private LayerImages type is deduced, never named.
template <typename Layer>
const std::pmr::vector<std::uint8_t>* select_image(const Layer& L,
                                                   codegen::PacketSel sel) {
  return sel == codegen::PacketSel::kIncoming
             ? (L.has_in ? &L.in_image : (L.has_out ? &L.out_image : nullptr))
             : (L.has_out ? &L.out_image : (L.has_in ? &L.in_image : nullptr));
}

/// Insert position for a fresh TLV in an out image: just before the end
/// code when the region already carries one, else the image end. Out
/// images only ever hold well-formed runs (the env wrote them), so a
/// malformed tail just appends at the end.
std::size_t option_insert_pos(const schema::LayerSpec& layer,
                              std::span<const std::uint8_t> img) {
  std::size_t pos = layer.options_offset;
  if (img.size() < pos) return img.size();
  while (pos < img.size()) {
    const std::uint8_t code = img[pos];
    if (code == layer.option_pad) {
      ++pos;
      continue;
    }
    if (code == layer.option_end) return pos;
    if (pos + 1 >= img.size()) return img.size();
    pos += 2 + img[pos + 1];
  }
  return img.size();
}

/// Remove every well-formed occurrence of option `type` from the image.
void erase_option(const schema::LayerSpec& layer,
                  std::pmr::vector<std::uint8_t>& img, std::uint8_t type) {
  std::size_t pos = layer.options_offset;
  while (pos < img.size()) {
    const std::uint8_t code = img[pos];
    if (code == layer.option_pad) {
      ++pos;
      continue;
    }
    if (code == layer.option_end) return;
    if (pos + 1 >= img.size()) return;
    const std::size_t len = 2 + img[pos + 1];
    if (pos + len > img.size()) return;
    if (code == type) {
      img.erase(img.begin() + static_cast<std::ptrdiff_t>(pos),
                img.begin() + static_cast<std::ptrdiff_t>(pos + len));
      continue;
    }
    pos += len;
  }
}

}  // namespace

std::optional<long> SchemaExecEnv::read_wire_option(
    std::uint8_t layer_slot, const schema::FieldSpec& spec,
    codegen::PacketSel sel) const {
  if (spec.kind != schema::FieldKind::kScalar) return std::nullopt;
  const LayerImages& L = wire_[layer_slot];
  const auto* img = select_image(L, sel);
  if (img == nullptr) return std::nullopt;
  const schema::LayoutCursor cursor(*L.spec, {img->data(), img->size()});
  const auto r = schema::SchemaRegistry::read_wire(cursor, spec);
  if (!r.ok()) return std::nullopt;
  return r.value;
}

bool SchemaExecEnv::write_wire_option(std::uint8_t layer_slot,
                                      const schema::FieldSpec& spec,
                                      long value) {
  if (spec.kind != schema::FieldKind::kScalar) return false;
  LayerImages& L = wire_[layer_slot];
  if (!L.has_out) return false;
  // In-place update when the option is already present with enough room
  // (write_wire's contract: a span cannot grow)...
  if (schema::SchemaRegistry::write_wire(
          *L.spec, spec, {L.out_image.data(), L.out_image.size()}, value)) {
    return true;
  }
  // ...else append a fresh {code, length, value} before the end code.
  const std::size_t len = (spec.bit_width + 7) / 8;
  std::vector<std::uint8_t> tlv;
  schema::OptionsView::append_scalar(tlv, spec.tlv_type, value, len);
  const std::size_t pos =
      option_insert_pos(*L.spec, {L.out_image.data(), L.out_image.size()});
  L.out_image.insert(L.out_image.begin() + static_cast<std::ptrdiff_t>(pos),
                     tlv.begin(), tlv.end());
  return true;
}

std::optional<std::vector<std::uint8_t>> SchemaExecEnv::read_option_bytes(
    std::uint8_t layer_slot, const schema::FieldSpec& spec,
    codegen::PacketSel sel) const {
  const LayerImages& L = wire_[layer_slot];
  const auto* img = select_image(L, sel);
  if (img == nullptr) return std::nullopt;
  const schema::OptionsView view(*L.spec, {img->data(), img->size()});
  const auto opt = view.find(spec.tlv_type);
  if (!opt) return std::nullopt;
  return std::vector<std::uint8_t>(opt->value.begin(), opt->value.end());
}

bool SchemaExecEnv::write_option_bytes(std::uint8_t layer_slot,
                                       const schema::FieldSpec& spec,
                                       std::span<const std::uint8_t> value) {
  LayerImages& L = wire_[layer_slot];
  if (!L.has_out) return false;
  erase_option(*L.spec, L.out_image, spec.tlv_type);
  std::vector<std::uint8_t> tlv;
  schema::OptionsView::append(tlv, spec.tlv_type, value);
  const std::size_t pos =
      option_insert_pos(*L.spec, {L.out_image.data(), L.out_image.size()});
  L.out_image.insert(L.out_image.begin() + static_cast<std::ptrdiff_t>(pos),
                     tlv.begin(), tlv.end());
  return true;
}

// -- bytes ------------------------------------------------------------------

bool SchemaExecEnv::is_bytes_field(const codegen::FieldRef& ref) const {
  return schema::is_bytes_field(pb_->schema, ref.field_id);
}

std::optional<std::vector<std::uint8_t>> SchemaExecEnv::read_bytes(
    const codegen::FieldRef& ref, codegen::PacketSel sel) {
  const Binding* b = binding(*pb_, ref);
  if (b == nullptr) return std::nullopt;
  if (b->kind == Binding::Kind::kWireOption &&
      b->spec->kind == schema::FieldKind::kBytes) {
    return read_option_bytes(b->layer_slot, *b->spec, sel);
  }
  if (b->kind != Binding::Kind::kBytes) return std::nullopt;
  const LayerImages& L = wire_[b->layer_slot];
  const auto& payload =
      sel == codegen::PacketSel::kIncoming ? L.in_payload : L.out_payload;
  return std::vector<std::uint8_t>(payload.begin(), payload.end());
}

bool SchemaExecEnv::write_bytes(const codegen::FieldRef& ref,
                                std::vector<std::uint8_t> value) {
  const Binding* b = binding(*pb_, ref);
  if (b == nullptr) return false;
  if (b->kind == Binding::Kind::kWireOption &&
      b->spec->kind == schema::FieldKind::kBytes) {
    return write_option_bytes(b->layer_slot, *b->spec, value);
  }
  if (b->kind != Binding::Kind::kBytes) return false;
  wire_[b->layer_slot].out_payload.assign(value.begin(), value.end());
  return true;
}

// -- framework functions (the per-protocol profiles) ------------------------

std::vector<std::uint8_t> SchemaExecEnv::out_message_bytes(
    std::size_t layer_slot) const {
  const LayerImages& L = wire_[layer_slot];
  std::vector<std::uint8_t> bytes(L.out_image.begin(), L.out_image.end());
  bytes.insert(bytes.end(), L.out_payload.begin(), L.out_payload.end());
  return bytes;
}

bool SchemaExecEnv::is_bytes_function(const std::string& fn) const {
  return schema::is_bytes_function(pb_->schema, fn);
}

std::optional<long> SchemaExecEnv::icmp_call_scalar(
    const std::string& fn, const std::vector<long>& args) {
  if (fn == "ones_complement_sum") {
    // Sum over the outgoing ICMP message as currently constructed,
    // including whatever sits in the checksum field (stale-value
    // semantics; see finish_reply).
    return net::ones_complement_sum(out_message_bytes(0));
  }
  if (fn == "ones_complement") {
    if (args.size() == 1) return (~args[0]) & 0xffff;
    return net::internet_checksum(out_message_bytes(0));
  }
  if (fn == "current_time") return static_cast<long>(clock_);
  if (fn == "receive_time") return static_cast<long>(clock_);
  if (fn == "transmit_time") return static_cast<long>(clock_) + 1;
  if (fn == "error_octet") return error_pointer_;
  if (fn == "better_gateway") return static_cast<long>(better_gateway_.value());
  if (fn == "own_address") return static_cast<long>(own_address_.value());
  return std::nullopt;
}

std::optional<long> SchemaExecEnv::icmp6_call_scalar(
    const std::string& fn, const std::vector<long>& args) {
  if (fn == "ones_complement_sum") {
    // RFC 4443 §2.3: the sum covers the ICMPv6 message chained with the
    // IPv6 pseudo-header. Same stale-value semantics as v4 — whatever
    // sits in the checksum field is summed in.
    const auto bytes = out_message_bytes(0);
    return net::ones_complement_sum(
        bytes, net::pseudo_header_sum_v6(
                   out_ip6_.src.bytes(), out_ip6_.dst.bytes(),
                   static_cast<std::uint32_t>(bytes.size()),
                   net::kIpProtoIcmp6));
  }
  if (fn == "ones_complement") {
    if (args.size() == 1) return (~args[0]) & 0xffff;
    const auto bytes = out_message_bytes(0);
    return net::internet_checksum(
        bytes, net::pseudo_header_sum_v6(
                   out_ip6_.src.bytes(), out_ip6_.dst.bytes(),
                   static_cast<std::uint32_t>(bytes.size()),
                   net::kIpProtoIcmp6));
  }
  if (fn == "current_time") return static_cast<long>(clock_);
  if (fn == "receive_time") return static_cast<long>(clock_);
  if (fn == "transmit_time") return static_cast<long>(clock_) + 1;
  if (fn == "error_octet") return error_pointer_;
  // Packet Too Big: the MTU of the next-hop link. The framework serves
  // the IPv6 minimum so both responders agree deterministically.
  if (fn == "link_mtu") return 1280;
  // The node's own address, served as an opaque handle like every other
  // 128-bit address (write_ip6 resolves it).
  if (fn == "own_address") return kH6Own;
  return std::nullopt;
}

std::optional<long> SchemaExecEnv::call_scalar(const std::string& fn,
                                               const std::vector<long>& args) {
  switch (profile_) {
    case Profile::kIcmp:
      return icmp_call_scalar(fn, args);
    case Profile::kIcmp6:
      return icmp6_call_scalar(fn, args);
    case Profile::kIgmp:
      if (fn == "ones_complement_sum" || fn == "ones_complement") {
        return 0;  // deferred: finish() computes the real checksum
      }
      return std::nullopt;
    case Profile::kNtp:
      if (fn == "current_time") return static_cast<long>(clock_);
      if (fn == "ones_complement_sum" || fn == "ones_complement") return 0;
      return std::nullopt;
    case Profile::kBfd:
      if (fn == "session_lookup") {
        // 1 when the Your Discriminator lookup found a session.
        return session_lookup_fails_ ? 0 : 1;
      }
      return std::nullopt;
    case Profile::kDhcp:
    case Profile::kStateMachine:
      return std::nullopt;
  }
  return std::nullopt;
}

std::optional<std::vector<std::uint8_t>> SchemaExecEnv::call_bytes(
    const std::string& fn) {
  if (profile_ != Profile::kIcmp && profile_ != Profile::kIcmp6) {
    return std::nullopt;
  }
  if (fn == "original_datagram_excerpt") {
    if (profile_ == Profile::kIcmp6) {
      // RFC 4443 §3.1: as much of the invoking packet as possible
      // without the ICMPv6 packet exceeding the minimum IPv6 MTU.
      constexpr std::size_t kMaxExcerpt =
          1280 - net::Ipv6Header::kHeaderBytes - 8;
      const std::size_t n = std::min(raw_incoming_.size(), kMaxExcerpt);
      return std::vector<std::uint8_t>(raw_incoming_.begin(),
                                       raw_incoming_.begin() + n);
    }
    return net::original_datagram_excerpt(raw_incoming_);
  }
  if (fn == "copy_field") {
    // Bare copy: the echoed data (copied out of the arena image).
    const auto& p = wire_[0].in_payload;
    return std::vector<std::uint8_t>(p.begin(), p.end());
  }
  return std::nullopt;
}

bool SchemaExecEnv::call_effect(const std::string& fn,
                                const std::vector<long>& args) {
  (void)args;
  switch (profile_) {
    case Profile::kIcmp:
    case Profile::kIcmp6:
      if (fn == "reverse_addresses") {
        reverse_addresses_effect();
        return true;
      }
      if (fn == "recompute_checksum" || fn == "compute_checksum") {
        // Deferred: the framework computes the checksum when the message
        // is finalized (after every field, including the variable-length
        // data, is in place). See finish_reply.
        checksum_explicitly_computed_ = true;
        return true;
      }
      if (fn == "send_message" || fn == "discard_packet") {
        return true;  // transmission is the simulator's job
      }
      return false;
    case Profile::kDhcp:
      if (fn == "compute_checksum" || fn == "recompute_checksum") {
        return true;  // UDP checksum is filled at serialization
      }
      if (fn == "send_message" || fn == "discard_packet") return true;
      return false;
    case Profile::kIgmp:
      if (fn == "compute_checksum" || fn == "recompute_checksum") {
        checksum_explicitly_computed_ = true;  // finish() fills it
        return true;
      }
      if (fn == "send_message" || fn == "discard_packet") return true;
      return false;
    case Profile::kNtp:
      if (fn == "call_timeout" || fn == "timeout") {
        timeout_called_ = true;
        return true;
      }
      if (fn == "compute_checksum" || fn == "recompute_checksum" ||
          fn == "send_message" || fn == "transmit_packet") {
        return true;  // UDP checksum is filled at serialization
      }
      return false;
    case Profile::kBfd:
      if (fn == "select_session") {
        session_selected_ = !session_lookup_fails_;
        return true;
      }
      if (fn == "discard_packet") {
        // "If no session is found, the packet MUST be discarded" — but
        // only when the lookup actually failed; generated code guards
        // this with the rewritten condition (Table 5).
        bfd_state_->packet_discarded = true;
        return true;
      }
      if (fn == "cease_transmission") {
        bfd_state_->periodic_transmission_enabled = false;
        return true;
      }
      if (fn == "call_timeout") {
        timeout_called_ = true;
        return true;
      }
      if (fn == "transmit_packet" || fn == "send_message") {
        packet_transmitted_ = true;
        return true;
      }
      return false;
    case Profile::kStateMachine:
      effects_.push_back(fn);
      return true;
  }
  return false;
}

void SchemaExecEnv::set_scenario(const std::string& name) {
  scenario_ = name;
  // Cached so the threaded backend's kPushScenario is a plain load (the
  // tree's resolve_symbol reads the same cache).
  scenario_value_ = util::symbol_value(scenario_);
}

long SchemaExecEnv::resolve_symbol(const std::string& name) {
  if (pb_->schema != nullptr && pb_->schema->scenario_symbol &&
      util::to_lower(name) == "scenario") {
    return scenario_value_;
  }
  return schema::symbol_value(pb_->schema, name);
}

// -- finalization and typed views -------------------------------------------

std::vector<std::uint8_t> SchemaExecEnv::finish_reply() {
  if (profile_ == Profile::kIcmp6) {
    auto bytes = out_message_bytes(0);
    if (out_ip6_.src == net::Ip6Addr()) out_ip6_.src = own6_;
    if (checksum_explicitly_computed_) {
      // Same stale-value contract as v4, with the RFC 4443 §2.3
      // pseudo-header chained in: the sum covers the message including
      // whatever the checksum field currently holds, so code that
      // skipped the zero-before-compute advice bakes in a stale value.
      const std::uint16_t ck =
          net::icmp6_checksum(out_ip6_.src, out_ip6_.dst, bytes);
      util::put_be16({bytes.data() + 2, 2}, ck);
    }
    return net::build_ipv6_packet(out_ip6_, bytes);
  }
  // Serialize the ICMP message with the checksum field exactly as the
  // generated code left it in the image...
  auto icmp_bytes = out_message_bytes(0);
  if (checksum_explicitly_computed_) {
    // ...then run the framework checksum over the message *including*
    // that field value. Generated code that followed the @AdvBefore
    // advice zeroed the field first, yielding the RFC-correct checksum;
    // code that skipped the advice bakes a stale value into the sum.
    const std::uint16_t ck = net::internet_checksum(icmp_bytes);
    util::put_be16({icmp_bytes.data() + 2, 2}, ck);
  }
  if (out_ip_.src == net::IpAddr()) out_ip_.src = own_address_;
  return net::build_ipv4_packet(out_ip_, icmp_bytes);
}

std::vector<std::uint8_t> SchemaExecEnv::finish(net::IpAddr destination) const {
  net::Ipv4Header ip;
  if (const auto* d = ip_default("protocol")) {
    ip.protocol = static_cast<std::uint8_t>(d->value);
  }
  if (const auto* d = ip_default("ttl")) {
    ip.ttl = static_cast<std::uint8_t>(d->value);
  }
  ip.src = own_address_;
  ip.dst = destination;

  if (profile_ == Profile::kIgmp) {
    // The IGMP checksum is always computed at serialization time over
    // the 8-byte message, whatever the checksum field was set to.
    std::vector<std::uint8_t> bytes(wire_[0].out_image.begin(),
                                    wire_[0].out_image.end());
    bytes[2] = 0;
    bytes[3] = 0;
    const std::uint16_t ck = net::internet_checksum(bytes);
    util::put_be16({bytes.data() + 2, 2}, ck);
    return net::build_ipv4_packet(ip, bytes);
  }

  // NTP: the packet image inside UDP inside IP, well-known port 123 when
  // generated code didn't set one.
  std::size_t udp_slot = 0;
  std::size_t ntp_slot = 0;
  for (std::size_t i = 0; i < wire_.size(); ++i) {
    if (wire_[i].spec->name == "udp") udp_slot = i;
    if (wire_[i].spec->name == "ntp") ntp_slot = i;
  }
  const auto& ntp_bytes = wire_[ntp_slot].out_image;
  net::UdpHeader udp;
  udp.src_port = util::get_be16({wire_[udp_slot].out_image.data(), 2});
  udp.dst_port = util::get_be16({wire_[udp_slot].out_image.data() + 2, 2});
  if (udp.src_port == 0) udp.src_port = net::kNtpPort;
  if (udp.dst_port == 0) udp.dst_port = net::kNtpPort;
  const auto udp_bytes = udp.serialize(own_address_, destination, ntp_bytes);
  return net::build_ipv4_packet(ip, udp_bytes);
}

net::IcmpMessage SchemaExecEnv::out_icmp() const {
  return *net::IcmpMessage::parse(out_message_bytes(0));
}

net::IgmpMessage SchemaExecEnv::message() const {
  return *net::IgmpMessage::parse(wire_[0].out_image);
}

net::NtpPacket SchemaExecEnv::packet() const {
  for (const auto& L : wire_) {
    if (L.spec->name == "ntp") return *net::NtpPacket::parse(L.out_image);
  }
  return net::NtpPacket{};
}

net::UdpHeader SchemaExecEnv::udp() const {
  for (const auto& L : wire_) {
    if (L.spec->name == "udp") {
      net::UdpHeader u;
      u.src_port = util::get_be16({L.out_image.data(), 2});
      u.dst_port = util::get_be16({L.out_image.data() + 2, 2});
      u.length = util::get_be16({L.out_image.data() + 4, 2});
      u.checksum = util::get_be16({L.out_image.data() + 6, 2});
      return u;
    }
  }
  return net::UdpHeader{};
}

}  // namespace sage::runtime
