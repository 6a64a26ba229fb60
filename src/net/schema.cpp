#include "net/schema.hpp"

#include <algorithm>

#include "util/bytes.hpp"
#include "util/strings.hpp"
#include "util/symbols.hpp"

namespace sage::net::schema {

namespace {

/// Field builder shorthand for the catalog below.
FieldSpec scalar(std::string name, std::uint32_t bit_offset,
                 std::uint32_t bit_width, bool readable = true,
                 bool writable = true) {
  FieldSpec f;
  f.name = std::move(name);
  f.kind = FieldKind::kScalar;
  f.bit_offset = bit_offset;
  f.bit_width = bit_width;
  f.readable = readable;
  f.writable = writable;
  return f;
}

FieldSpec state(std::string name, bool writable = true) {
  FieldSpec f;
  f.name = std::move(name);
  f.kind = FieldKind::kState;
  f.writable = writable;
  return f;
}

FieldSpec payload_scalar(std::string name, std::uint32_t byte_offset) {
  FieldSpec f;
  f.name = std::move(name);
  f.kind = FieldKind::kPayloadScalar;
  f.payload_offset = byte_offset;
  return f;
}

FieldSpec bytes(std::string name) {
  FieldSpec f;
  f.name = std::move(name);
  f.kind = FieldKind::kBytes;
  return f;
}

FieldSpec token(std::string name) {
  FieldSpec f;
  f.name = std::move(name);
  f.kind = FieldKind::kToken;
  f.writable = false;
  return f;
}

FieldSpec virt(std::string name, bool writable = false,
               bool write_is_noop = false) {
  FieldSpec f;
  f.name = std::move(name);
  f.kind = FieldKind::kVirtual;
  f.readable = false;
  f.writable = writable;
  f.write_is_noop = write_is_noop;
  return f;
}

/// A scalar checksum at a fixed offset whose computation covers an IP
/// pseudo-header chaining `pseudo_proto` (udp.checksum, icmp6.checksum).
FieldSpec pseudo_checksum(std::string name, std::uint32_t bit_offset,
                          std::uint8_t pseudo_proto, bool readable = true,
                          bool writable = true) {
  FieldSpec f = scalar(std::move(name), bit_offset, 16, readable, writable);
  f.loc = FieldLoc::kPseudoDerived;
  f.pseudo_proto = pseudo_proto;
  return f;
}

/// A scalar stored inside a TLV option value (DHCP option scalars).
FieldSpec tlv_scalar(std::string name, std::uint8_t tlv_type,
                     std::uint32_t bit_width) {
  FieldSpec f = scalar(std::move(name), 0, bit_width);
  f.loc = FieldLoc::kTlvOption;
  f.tlv_type = tlv_type;
  return f;
}

/// A whole variable-length TLV option value (DHCP parameter request list).
FieldSpec tlv_bytes(std::string name, std::uint8_t tlv_type) {
  FieldSpec f = bytes(std::move(name));
  f.loc = FieldLoc::kLengthPrefixed;
  f.tlv_type = tlv_type;
  return f;
}

/// A 128-bit address served by the runtime env as an opaque handle
/// (ip6.src / ip6.dst): readable and writable, but storage-less here.
FieldSpec addr6(std::string name) {
  FieldSpec f = virt(std::move(name), /*writable=*/true);
  f.readable = true;
  return f;
}

}  // namespace

std::string field_kind_name(FieldKind kind) {
  switch (kind) {
    case FieldKind::kScalar: return "scalar";
    case FieldKind::kPayloadScalar: return "payload";
    case FieldKind::kBytes: return "bytes";
    case FieldKind::kState: return "state";
    case FieldKind::kToken: return "token";
    case FieldKind::kVirtual: return "virtual";
  }
  return "?";
}

std::string field_loc_name(FieldLoc loc) {
  switch (loc) {
    case FieldLoc::kFixed: return "fixed";
    case FieldLoc::kLengthPrefixed: return "length-prefixed";
    case FieldLoc::kTlvOption: return "tlv-option";
    case FieldLoc::kPseudoDerived: return "pseudo-derived";
  }
  return "?";
}

std::string read_status_name(ReadStatus status) {
  switch (status) {
    case ReadStatus::kOk: return "ok";
    case ReadStatus::kUnknownField: return "unknown-field";
    case ReadStatus::kShortRead: return "short-read";
    case ReadStatus::kMissingOption: return "missing-option";
  }
  return "?";
}

std::string tlv_status_name(TlvStatus status) {
  switch (status) {
    case TlvStatus::kOk: return "ok";
    case TlvStatus::kTruncated: return "truncated";
    case TlvStatus::kLengthLie: return "length-lie";
  }
  return "?";
}

// ---- OptionsView -----------------------------------------------------------

OptionsView::OptionsView(std::span<const std::uint8_t> region,
                         std::uint8_t pad_code, std::uint8_t end_code)
    : region_(region), pad_(pad_code), end_(end_code) {
  // One classification pass. Iteration re-walks lazily (no allocation);
  // both stop at the same first malformation, so what begin()/end()
  // yields is exactly the well-formed prefix status() vouches for.
  std::size_t pos = 0;
  while (pos < region_.size()) {
    const std::uint8_t code = region_[pos];
    if (code == end_) return;
    if (code == pad_) {
      ++pos;
      continue;
    }
    if (pos + 1 >= region_.size()) {
      status_ = TlvStatus::kTruncated;
      return;
    }
    const std::size_t len = region_[pos + 1];
    if (pos + 2 + len > region_.size()) {
      status_ = TlvStatus::kLengthLie;
      return;
    }
    pos += 2 + len;
  }
}

OptionsView::OptionsView(const LayerSpec& layer,
                         std::span<const std::uint8_t> image)
    : OptionsView(layer.has_options && image.size() > layer.options_offset
                      ? image.subspan(layer.options_offset)
                      : std::span<const std::uint8_t>{},
                  layer.option_pad, layer.option_end) {}

void OptionsView::iterator::advance_to(std::size_t pos) {
  if (view_ == nullptr) {
    pos_ = std::size_t(-1);
    return;
  }
  const auto region = view_->region_;
  while (pos < region.size()) {
    const std::uint8_t code = region[pos];
    if (code == view_->end_) break;
    if (code == view_->pad_) {
      ++pos;
      continue;
    }
    if (pos + 1 >= region.size()) break;  // truncated: stop cleanly
    const std::size_t len = region[pos + 1];
    if (pos + 2 + len > region.size()) break;  // length lie: stop cleanly
    pos_ = pos;
    next_ = pos + 2 + len;
    current_ = {code, region.subspan(pos + 2, len)};
    return;
  }
  pos_ = std::size_t(-1);
}

std::optional<TlvOption> OptionsView::find(std::uint8_t type) const {
  for (const auto& opt : *this) {
    if (opt.type == type) return opt;
  }
  return std::nullopt;
}

std::size_t OptionsView::count() const {
  std::size_t n = 0;
  for (const auto& opt : *this) {
    (void)opt;
    ++n;
  }
  return n;
}

void OptionsView::append(std::vector<std::uint8_t>& out, std::uint8_t type,
                         std::span<const std::uint8_t> value) {
  out.push_back(type);
  out.push_back(static_cast<std::uint8_t>(value.size()));
  out.insert(out.end(), value.begin(), value.end());
}

void OptionsView::append_scalar(std::vector<std::uint8_t>& out,
                                std::uint8_t type, long value,
                                std::size_t length) {
  out.push_back(type);
  out.push_back(static_cast<std::uint8_t>(length));
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(static_cast<std::uint8_t>(
        static_cast<std::uint64_t>(value) >> (8 * (length - 1 - i))));
  }
}

void OptionsView::append_end(std::vector<std::uint8_t>& out,
                             std::uint8_t end_code) {
  out.push_back(end_code);
}

// ---- LayoutCursor ----------------------------------------------------------

LayoutCursor::LayoutCursor(const LayerSpec& layer,
                           std::span<const std::uint8_t> image)
    : layer_(&layer),
      image_(image),
      options_(layer.has_options && image.size() > layer.options_offset
                   ? image.subspan(layer.options_offset)
                   : std::span<const std::uint8_t>{}),
      view_(options_, layer.option_pad, layer.option_end) {}

// ---- registry catalog ------------------------------------------------------

SchemaRegistry::SchemaRegistry() {
  // ---- ip (RFC 791, 20-byte base header) ---------------------------------
  {
    LayerSpec ip;
    ip.name = "ip";
    ip.header_bytes = 20;
    ip.fields = {
        scalar("version", 0, 4, true, false),
        scalar("ihl", 4, 4, true, false),
        scalar("tos", 8, 8),
        scalar("total_length", 16, 16, true, false),
        scalar("identification", 32, 16, true, false),
        scalar("flags", 48, 3, true, false),
        scalar("fragment_offset", 51, 13, true, false),
        scalar("ttl", 64, 8),
        scalar("protocol", 72, 8, true, false),
        scalar("checksum", 80, 16, true, false),
        scalar("src", 96, 32),
        scalar("dst", 128, 32),
        // Codegen-only phrases: "source and destination addresses",
        // "internet header". Runtime access goes through effects
        // (reverse_addresses) and byte functions, never these refs.
        virt("addresses"),
        virt("header"),
    };
    add_layer(std::move(ip));
  }

  // ---- ip6 (RFC 8200, 40-byte header) ------------------------------------
  // The 128-bit addresses are not 32-bit schema scalars; generated code
  // touches them only through effects (reverse_addresses) and the env's
  // own Ip6Addr storage, so they are declared codegen-only.
  {
    LayerSpec ip6;
    ip6.name = "ip6";
    ip6.header_bytes = 40;
    ip6.fields = {
        scalar("version", 0, 4, true, false),
        scalar("traffic_class", 4, 8),
        scalar("flow_label", 12, 20, true, false),
        scalar("payload_length", 32, 16, true, false),
        scalar("next_header", 48, 8, true, false),
        scalar("hop_limit", 56, 8),
        // 128-bit addresses are not 32-bit wire scalars: the runtime env
        // serves them as opaque address handles (generated code only ever
        // moves them, e.g. "out->ip6.dst = in->ip6.src"), so they are
        // readable/writable virtuals with no bit placement.
        addr6("src"),
        addr6("dst"),
        virt("addresses"),
        virt("header"),
    };
    add_layer(std::move(ip6));
  }

  // ---- icmp (RFC 792, 8-byte header + payload) ---------------------------
  {
    LayerSpec icmp;
    icmp.name = "icmp";
    icmp.header_bytes = 8;
    icmp.has_payload = true;
    icmp.payload_patterns = {"internet_header", "datagram"};
    icmp.fields = {
        scalar("type", 0, 8),
        scalar("code", 8, 8),
        scalar("checksum", 16, 16),
        scalar("identifier", 32, 16),
        scalar("sequence_number", 48, 16),
        scalar("gateway_internet_address", 32, 32),
        // RFC 792 pointer: writes fill the whole rest-word (value << 24),
        // zeroing the unused octets — the ICMP hook handles the write.
        scalar("pointer", 32, 8),
        payload_scalar("originate_timestamp", 0),
        payload_scalar("receive_timestamp", 4),
        payload_scalar("transmit_timestamp", 8),
        // "unused" is explicitly writable prose ("unused ... set to zero")
        // but has no storage: writes are accepted and discarded, reads
        // are an error, exactly as the RFC field deserves.
        virt("unused", /*writable=*/true, /*write_is_noop=*/true),
        token("message"),
        bytes("data"),
    };
    add_layer(std::move(icmp));
  }

  // ---- icmp6 (RFC 4443, 8-byte header + payload) -------------------------
  // Mirrors the icmp layer; the checksum is pseudo-header-derived
  // (next header 58), and the parameter-problem pointer is a full
  // 32-bit field instead of RFC 792's high octet.
  {
    LayerSpec icmp6;
    icmp6.name = "icmp6";
    icmp6.header_bytes = 8;
    icmp6.has_payload = true;
    icmp6.payload_patterns = {"invoking_packet", "original_packet",
                              "datagram"};
    icmp6.fields = {
        scalar("type", 0, 8),
        scalar("code", 8, 8),
        pseudo_checksum("checksum", 16, /*pseudo_proto=*/58),
        scalar("identifier", 32, 16),
        scalar("sequence_number", 48, 16),
        scalar("pointer", 32, 32),
        scalar("mtu", 32, 32),
        virt("unused", /*writable=*/true, /*write_is_noop=*/true),
        token("message"),
        bytes("data"),
    };
    add_layer(std::move(icmp6));
  }

  // ---- igmp (RFC 1112 Appendix I, 8 bytes) -------------------------------
  {
    LayerSpec igmp;
    igmp.name = "igmp";
    igmp.header_bytes = 8;
    igmp.fields = {
        scalar("version", 0, 4),
        scalar("type", 4, 4),
        scalar("unused", 8, 8),
        scalar("checksum", 16, 16),
        scalar("group_address", 32, 32),
        // The framework's "which group am I joining" service.
        state("host_group_address", /*writable=*/false),
        token("message"),
    };
    add_layer(std::move(igmp));
  }

  // ---- udp (RFC 768, 8 bytes) --------------------------------------------
  {
    LayerSpec udp;
    udp.name = "udp";
    udp.header_bytes = 8;
    udp.fields = {
        scalar("src_port", 0, 16),
        scalar("dst_port", 16, 16),
        scalar("length", 32, 16, true, false),
        // "filled at serialization": writes accepted, value discarded.
        // The value covers the IPv4 pseudo-header (protocol 17) — the
        // same derivation rule icmp6.checksum declares for IPv6.
        pseudo_checksum("checksum", 48, /*pseudo_proto=*/17,
                        /*readable=*/false, /*writable=*/true),
    };
    udp.fields.back().write_is_noop = true;
    add_layer(std::move(udp));
  }

  // ---- ntp (RFC 1059 Appendix B, 48 bytes) -------------------------------
  {
    LayerSpec n;
    n.name = "ntp";
    n.header_bytes = 48;
    n.fields = {
        scalar("leap_indicator", 0, 2),
        scalar("version", 2, 3),
        scalar("mode", 5, 3),
        scalar("stratum", 8, 8),
        scalar("poll", 16, 8),
        scalar("precision", 24, 8),
        scalar("root_delay", 32, 32, false, false),
        scalar("root_dispersion", 64, 32, false, false),
        scalar("reference_clock_id", 96, 32, false, false),
        // The 64-bit timestamps' seconds words. Declared for codegen and
        // decode; only the transmit timestamp is runtime-accessible (the
        // generated timeout sender touches nothing else).
        scalar("reference_timestamp", 128, 32, false, false),
        scalar("originate_timestamp", 192, 32, false, false),
        scalar("receive_timestamp", 256, 32, false, false),
        scalar("transmit_timestamp", 320, 32),
        state("peer_timer", /*writable=*/false),
        token("message"),
    };
    n.fields[4].is_signed = true;  // poll
    n.fields[5].is_signed = true;  // precision
    add_layer(std::move(n));
  }

  // ---- bfd (RFC 5880: §4.1 wire format + §6.8.1 state variables) ---------
  {
    LayerSpec bfd;
    bfd.name = "bfd";
    bfd.header_bytes = 24;
    bfd.fields = {
        // Mandatory-section wire fields (read-only to generated code;
        // *_field names disambiguate from the session state variables).
        scalar("version", 0, 3, false, false),
        scalar("diag", 3, 5, false, false),
        scalar("state", 8, 2, true, false),
        scalar("poll_bit", 10, 1, true, false),
        scalar("final_bit", 11, 1, false, false),
        scalar("control_plane_independent_bit", 12, 1, false, false),
        scalar("authentication_present_bit", 13, 1, false, false),
        scalar("demand_bit", 14, 1, true, false),
        scalar("multipoint_bit", 15, 1, true, false),
        scalar("detect_mult_field", 16, 8, true, false),
        scalar("length_field", 24, 8, false, false),
        scalar("my_discriminator", 32, 32, true, false),
        scalar("your_discriminator", 64, 32, true, false),
        scalar("desired_min_tx_interval_field", 96, 32, false, false),
        scalar("required_min_rx_interval_field", 128, 32, true, false),
        scalar("required_min_echo_rx_interval_field", 160, 32, true, false),
        // §6.8.1 session state variables (bfd.* in the corpus).
        state("session_state"),
        state("remote_session_state"),
        state("local_discr"),
        state("remote_discr"),
        state("local_diag"),
        state("desired_min_tx_interval"),
        state("required_min_rx_interval"),
        state("remote_min_rx_interval"),
        state("demand_mode"),
        state("remote_demand_mode"),
        state("detect_mult"),
        state("auth_type"),
    };
    add_layer(std::move(bfd));
  }

  // ---- dhcp (RFC 2131 fixed header + RFC 2132 options TLVs) --------------
  // 236 BOOTP bytes + the 4-byte magic cookie = a 240-byte fixed image;
  // everything after is the options region (pad 0, end 255). The option
  // fields below are the first schema entries addressed by option code
  // instead of a fixed offset — the layout-program half of schema v2.
  {
    LayerSpec dhcp;
    dhcp.name = "dhcp";
    dhcp.header_bytes = 240;
    dhcp.has_options = true;
    dhcp.options_offset = 240;
    dhcp.option_pad = 0;
    dhcp.option_end = 255;
    dhcp.fields = {
        scalar("op", 0, 8),
        scalar("htype", 8, 8),
        scalar("hlen", 16, 8),
        scalar("hops", 24, 8),
        scalar("xid", 32, 32),
        scalar("secs", 64, 16),
        scalar("flags", 80, 16),
        scalar("ciaddr", 96, 32),
        scalar("yiaddr", 128, 32),
        scalar("siaddr", 160, 32),
        scalar("giaddr", 192, 32),
        // chaddr/sname/file are opaque blocks; the cookie pins RFC 2132.
        scalar("magic_cookie", 1888, 32, true, false),
        // Options (RFC 2132 codes). Scalars live inside their option
        // value; the two bytes fields are whole variable-length values.
        tlv_scalar("subnet_mask", 1, 32),
        tlv_scalar("requested_ip", 50, 32),
        tlv_scalar("lease_time", 51, 32),
        tlv_scalar("message_type", 53, 8),
        tlv_scalar("server_identifier", 54, 32),
        tlv_scalar("renewal_time", 58, 32),
        tlv_bytes("parameter_request_list", 55),
        tlv_bytes("client_identifier", 61),
        token("message"),
    };
    add_layer(std::move(dhcp));
  }

  // ---- tcp / bgp probe state (§7 reach experiment) -----------------------
  {
    LayerSpec tcp;
    tcp.name = "tcp";
    tcp.fields = {
        state("syn_bit"),  state("ack_bit"),          state("rst_bit"),
        state("fin_bit"),  state("connection_state"), state("segment"),
    };
    add_layer(std::move(tcp));

    LayerSpec bgp;
    bgp.name = "bgp";
    bgp.fields = {state("hold_timer"), state("marker"), state("version")};
    add_layer(std::move(bgp));
  }

  // ---- serve (sage_serve request/response framing) -----------------------
  // The service daemon's own wire protocol, registered here so the frame
  // codec (src/serve/frame.cpp) encodes and decodes through the same
  // read_wire/write_scalar/decode_layer machinery every other protocol
  // uses — the service boundary is differential-testable like any
  // protocol under test (docs/SERVICE.md).
  {
    LayerSpec serve;
    serve.name = "serve";
    serve.header_bytes = 20;
    serve.has_payload = true;
    serve.fields = {
        scalar("magic", 0, 16),           // 0x5347 "SG"
        scalar("version", 16, 8),         // wire version, currently 1
        scalar("kind", 24, 8),            // serve::FrameKind
        scalar("job_id", 32, 32),         // client-assigned, echoed back
        scalar("status", 64, 8),          // serve::JobStatus (responses)
        scalar("flags", 72, 8),           // bit 0: session-cache hit
        scalar("time_micros", 80, 32),    // server-side job wall time
        scalar("payload_length", 112, 32),
        scalar("reserved", 144, 16),      // must encode as zero
        bytes("payload"),
    };
    add_layer(std::move(serve));
  }

  // ---- protocol entries ---------------------------------------------------
  protocols_ = {
      {"ICMP",
       {"ip", "icmp"},
       {{"ip", "protocol", 1}, {"ip", "ttl", 64}},
       {},
       /*scenario_symbol=*/true,
       {"original_datagram_excerpt", "copy_field"}},
      {"ICMP6",
       {"ip6", "icmp6"},
       {{"ip6", "version", 6},
        {"ip6", "next_header", 58},
        {"ip6", "hop_limit", 64}},
       {},
       /*scenario_symbol=*/true,
       {"original_datagram_excerpt", "copy_field"}},
      {"IGMP",
       {"igmp"},
       {{"igmp", "version", 1},
        {"igmp", "type", 1},
        {"ip", "protocol", 2},
        {"ip", "ttl", 1}},
       {},
       /*scenario_symbol=*/true, {}},
      {"NTP",
       {"udp", "ntp"},
       {{"ntp", "version", 1},
        {"ntp", "mode", 3},
        {"ntp", "poll", 6},
        {"ntp", "precision", -6},
        {"ip", "protocol", 17},
        {"ip", "ttl", 64}},
       {},
       /*scenario_symbol=*/false, {}},
      {"BFD",
       {"bfd"},
       {},
       {{"up", 3}, {"down", 1}, {"init", 2}, {"admindown", 0}},
       /*scenario_symbol=*/false, {}},
      {"DHCP",
       {"dhcp"},
       {{"dhcp", "op", 2},
        {"dhcp", "htype", 1},
        {"dhcp", "hlen", 6},
        {"ip", "protocol", 17},
        {"ip", "ttl", 64}},
       {{"discover", 1},
        {"offer", 2},
        {"request", 3},
        {"decline", 4},
        {"ack", 5},
        {"nak", 6},
        {"release", 7},
        {"inform", 8}},
       /*scenario_symbol=*/false, {}},
      {"TCP", {"tcp"}, {}, {}, /*scenario_symbol=*/false, {}},
      {"BGP", {"bgp"}, {}, {}, /*scenario_symbol=*/false, {}},
      // The service daemon's framing. Symbols encode the FrameKind values
      // so a decoded `serve.kind` can be named straight from the table.
      {"SERVE",
       {"serve"},
       {{"serve", "magic", 0x5347}, {"serve", "version", 1}},
       {{"parse", 1},
        {"codegen", 2},
        {"interop", 3},
        {"fuzz", 4},
        {"stats", 5},
        {"goodbye", 6},
        {"result", 17},
        {"stats-result", 18},
        {"error", 19}},
       /*scenario_symbol=*/false, {}},
  };
}

void SchemaRegistry::add_layer(LayerSpec layer) {
  layers_.push_back(std::move(layer));
}

const SchemaRegistry& SchemaRegistry::instance() {
  static const SchemaRegistry* registry = [] {
    auto* r = new SchemaRegistry();
    // Assign dense ids once all layers are in place (vector storage is
    // stable from here on; the registry is immutable afterwards).
    for (auto& l : r->layers_) {
      for (auto& f : l.fields) {
        f.id = static_cast<int>(r->by_id_.size());
        r->by_id_.push_back({&f, &l});
      }
    }
    return r;
  }();
  return *registry;
}

const LayerSpec* SchemaRegistry::layer(std::string_view name) const {
  for (const auto& l : layers_) {
    if (l.name == name) return &l;
  }
  return nullptr;
}

const ProtocolSchema* SchemaRegistry::protocol(std::string_view name) const {
  for (const auto& p : protocols_) {
    if (p.protocol == name) return &p;
  }
  return nullptr;
}

const FieldSpec* SchemaRegistry::field(std::string_view layer_name,
                                       std::string_view field_name) const {
  const LayerSpec* l = layer(layer_name);
  if (l == nullptr) return nullptr;
  for (const auto& f : l->fields) {
    if (f.name == field_name) return &f;
  }
  // Payload-pattern fallback: dynamically-named excerpt fields resolve to
  // the layer's canonical bytes field.
  for (const auto& pattern : l->payload_patterns) {
    if (field_name.find(pattern) != std::string_view::npos) {
      for (const auto& f : l->fields) {
        if (f.kind == FieldKind::kBytes) return &f;
      }
    }
  }
  return nullptr;
}

const FieldSpec* SchemaRegistry::field_by_id(int id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= by_id_.size()) return nullptr;
  return by_id_[static_cast<std::size_t>(id)].spec;
}

const LayerSpec* SchemaRegistry::layer_by_id(int id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= by_id_.size()) return nullptr;
  return by_id_[static_cast<std::size_t>(id)].layer;
}

bool is_bytes_field(const ProtocolSchema* protocol, int field_id) {
  const auto& registry = SchemaRegistry::instance();
  const FieldSpec* spec = registry.field_by_id(field_id);
  if (protocol == nullptr || spec == nullptr ||
      spec->kind != FieldKind::kBytes) {
    return false;
  }
  const std::string& layer = registry.layer_by_id(field_id)->name;
  return std::find(protocol->layers.begin(), protocol->layers.end(), layer) !=
         protocol->layers.end();
}

bool is_bytes_function(const ProtocolSchema* protocol, std::string_view fn) {
  return protocol != nullptr &&
         std::find(protocol->bytes_functions.begin(),
                   protocol->bytes_functions.end(),
                   fn) != protocol->bytes_functions.end();
}

long symbol_value(const ProtocolSchema* protocol, std::string_view name) {
  if (protocol != nullptr) {
    const std::string lower = util::to_lower(name);
    for (const auto& s : protocol->symbols) {
      if (s.name == lower) return s.value;
    }
  }
  return util::symbol_value(name);
}

namespace {

/// The shared bit-extraction core: read `bit_offset`/`bit_width` out of
/// any byte image (a header image for kFixed, an option value for
/// kTlvOption).
std::optional<long> read_bits(const FieldSpec& spec,
                              std::span<const std::uint8_t> image) {
  const std::uint32_t end_bit = spec.bit_offset + spec.bit_width;
  if (image.size() * 8 < end_bit) return std::nullopt;

  std::uint64_t value = 0;
  if ((spec.bit_offset & 7) == 0 && (spec.bit_width & 7) == 0) {
    // Byte-aligned fast path (the overwhelmingly common case).
    const std::size_t off = spec.bit_offset / 8;
    switch (spec.bit_width) {
      case 8: value = image[off]; break;
      case 16: value = util::get_be16(image.subspan(off, 2)); break;
      case 32: value = util::get_be32(image.subspan(off, 4)); break;
      default:
        for (std::uint32_t i = 0; i < spec.bit_width / 8; ++i) {
          value = (value << 8) | image[off + i];
        }
        break;
    }
  } else {
    for (std::uint32_t bit = spec.bit_offset; bit < end_bit; ++bit) {
      value = (value << 1) | ((image[bit / 8] >> (7 - (bit & 7))) & 1);
    }
  }
  if (spec.is_signed && spec.bit_width < 64 &&
      (value & (1ULL << (spec.bit_width - 1))) != 0) {
    return static_cast<long>(value) -
           static_cast<long>(1ULL << spec.bit_width);
  }
  return static_cast<long>(value);
}

bool write_bits(const FieldSpec& spec, std::span<std::uint8_t> image,
                long value) {
  const std::uint32_t end_bit = spec.bit_offset + spec.bit_width;
  if (image.size() * 8 < end_bit) return false;

  const std::uint64_t raw =
      spec.bit_width >= 64
          ? static_cast<std::uint64_t>(value)
          : static_cast<std::uint64_t>(value) & ((1ULL << spec.bit_width) - 1);
  if ((spec.bit_offset & 7) == 0 && (spec.bit_width & 7) == 0) {
    const std::size_t off = spec.bit_offset / 8;
    switch (spec.bit_width) {
      case 8: image[off] = static_cast<std::uint8_t>(raw); return true;
      case 16:
        util::put_be16(image.subspan(off, 2), static_cast<std::uint16_t>(raw));
        return true;
      case 32:
        util::put_be32(image.subspan(off, 4), static_cast<std::uint32_t>(raw));
        return true;
      default: break;
    }
  }
  for (std::uint32_t i = 0; i < spec.bit_width; ++i) {
    const std::uint32_t bit = spec.bit_offset + i;
    const std::uint8_t mask =
        static_cast<std::uint8_t>(1u << (7 - (bit & 7)));
    const bool set = (raw >> (spec.bit_width - 1 - i)) & 1;
    if (set) {
      image[bit / 8] |= mask;
    } else {
      image[bit / 8] &= static_cast<std::uint8_t>(~mask);
    }
  }
  return true;
}

bool loc_is_fixed(const FieldSpec& spec) {
  // kPseudoDerived changes how the value is *computed*, not where it
  // lives — reads and writes take the fixed-offset path unchanged.
  return spec.loc == FieldLoc::kFixed || spec.loc == FieldLoc::kPseudoDerived;
}

}  // namespace

std::optional<long> SchemaRegistry::read_scalar(
    const FieldSpec& spec, std::span<const std::uint8_t> image) {
  if (spec.kind != FieldKind::kScalar || !loc_is_fixed(spec)) {
    return std::nullopt;
  }
  return read_bits(spec, image);
}

bool SchemaRegistry::write_scalar(const FieldSpec& spec,
                                  std::span<std::uint8_t> image, long value) {
  if (spec.kind != FieldKind::kScalar || !loc_is_fixed(spec)) return false;
  return write_bits(spec, image, value);
}

WireRead SchemaRegistry::read_wire(const LayoutCursor& cursor,
                                   const FieldSpec& spec) {
  if (spec.kind != FieldKind::kScalar) return {ReadStatus::kUnknownField, 0};
  if (loc_is_fixed(spec)) {
    const auto value = read_bits(spec, cursor.image());
    if (!value) return {ReadStatus::kShortRead, 0};
    return {ReadStatus::kOk, *value};
  }
  if (spec.loc != FieldLoc::kTlvOption) return {ReadStatus::kUnknownField, 0};
  const auto& view = cursor.options();
  const auto opt = view.find(spec.tlv_type);
  if (!opt) {
    // A malformed region cannot prove absence: report it as short, the
    // same pinned status truncated fixed fields get.
    if (!view.ok()) return {ReadStatus::kShortRead, 0};
    return {ReadStatus::kMissingOption, 0};
  }
  const auto value = read_bits(spec, opt->value);
  if (!value) return {ReadStatus::kShortRead, 0};
  return {ReadStatus::kOk, *value};
}

WireRead SchemaRegistry::read_wire(std::string_view layer_name,
                                   std::string_view field_name,
                                   std::span<const std::uint8_t> image) const {
  const FieldSpec* spec = field(layer_name, field_name);
  if (spec == nullptr || spec->kind != FieldKind::kScalar) {
    return {ReadStatus::kUnknownField, 0};
  }
  if (loc_is_fixed(*spec)) {
    // Fixed-offset fast path: no cursor, no options scan.
    const auto value = read_bits(*spec, image);
    if (!value) return {ReadStatus::kShortRead, 0};
    return {ReadStatus::kOk, *value};
  }
  const LayoutCursor cursor(*layer(layer_name), image);
  return read_wire(cursor, *spec);
}

bool SchemaRegistry::write_wire(const LayerSpec& layer, const FieldSpec& spec,
                                std::span<std::uint8_t> image, long value) {
  if (spec.kind != FieldKind::kScalar) return false;
  if (loc_is_fixed(spec)) return write_bits(spec, image, value);
  if (spec.loc != FieldLoc::kTlvOption) return false;
  if (!layer.has_options || image.size() <= layer.options_offset) return false;
  // Walk the mutable region with the same grammar the OptionsView scans;
  // update the first matching option's value in place.
  auto region = image.subspan(layer.options_offset);
  std::size_t pos = 0;
  while (pos < region.size()) {
    const std::uint8_t code = region[pos];
    if (code == layer.option_end) return false;
    if (code == layer.option_pad) {
      ++pos;
      continue;
    }
    if (pos + 1 >= region.size()) return false;
    const std::size_t len = region[pos + 1];
    if (pos + 2 + len > region.size()) return false;
    if (code == spec.tlv_type) {
      return write_bits(spec, region.subspan(pos + 2, len), value);
    }
    pos += 2 + len;
  }
  return false;
}

std::string SchemaRegistry::dump() const {
  std::string out;
  for (const auto& l : layers_) {
    out += "layer " + l.name;
    if (l.header_bytes > 0) {
      out += " (" + std::to_string(l.header_bytes) + " bytes";
      if (l.has_payload) out += " + payload";
      if (l.has_options) {
        out += " + options@" + std::to_string(l.options_offset) + " pad=" +
               std::to_string(l.option_pad) + " end=" +
               std::to_string(l.option_end);
      }
      out += ")";
    } else {
      out += " (state-only)";
    }
    out += "\n";
    for (const auto& f : l.fields) {
      out += "  " + l.name + "." + f.name + "  " + field_kind_name(f.kind);
      if (f.kind == FieldKind::kScalar) {
        if (f.loc == FieldLoc::kTlvOption) {
          out += " tlv=" + std::to_string(f.tlv_type) + " +" +
                 std::to_string(f.bit_offset) + "+" +
                 std::to_string(f.bit_width);
        } else {
          out += " @" + std::to_string(f.bit_offset) + "+" +
                 std::to_string(f.bit_width);
          if (f.loc == FieldLoc::kPseudoDerived) {
            out += " pseudo(" + std::to_string(f.pseudo_proto) + ")";
          }
          if (f.is_signed) out += " signed";
        }
      } else if (f.kind == FieldKind::kPayloadScalar) {
        out += " payload+" + std::to_string(f.payload_offset);
      } else if (f.kind == FieldKind::kBytes &&
                 f.loc == FieldLoc::kLengthPrefixed) {
        out += " tlv=" + std::to_string(f.tlv_type) + " length-prefixed";
      }
      out += std::string(" ") + (f.readable ? "r" : "-") +
             (f.writable ? (f.write_is_noop ? "n" : "w") : "-");
      out += "  id=" + std::to_string(f.id);
      out += "\n";
    }
  }
  for (const auto& p : protocols_) {
    out += "protocol " + p.protocol + ": layers [";
    for (std::size_t i = 0; i < p.layers.size(); ++i) {
      if (i > 0) out += ", ";
      out += p.layers[i];
    }
    out += "]";
    if (!p.defaults.empty()) {
      out += " defaults {";
      for (std::size_t i = 0; i < p.defaults.size(); ++i) {
        if (i > 0) out += ", ";
        out += p.defaults[i].layer + "." + p.defaults[i].field + "=" +
               std::to_string(p.defaults[i].value);
      }
      out += "}";
    }
    if (!p.symbols.empty()) {
      out += " symbols {";
      for (std::size_t i = 0; i < p.symbols.size(); ++i) {
        if (i > 0) out += ", ";
        out += p.symbols[i].name + "=" + std::to_string(p.symbols[i].value);
      }
      out += "}";
    }
    out += "\n";
  }
  return out;
}

std::vector<std::string> SchemaRegistry::decode_layer(
    std::string_view layer_name, std::span<const std::uint8_t> image) const {
  std::vector<std::string> out;
  const LayerSpec* l = layer(layer_name);
  if (l == nullptr) return out;
  for (const auto& f : l->fields) {
    if (f.kind != FieldKind::kScalar || !loc_is_fixed(f)) continue;
    const auto v = read_scalar(f, image);
    out.push_back(l->name + "." + f.name + " = " +
                  (v ? std::to_string(*v) : std::string("<short read>")));
  }
  if (!l->has_options) return out;
  // One cursor for the whole options pass: the region bounds and the
  // well-formedness scan are resolved exactly once.
  const LayoutCursor cursor(*l, image);
  for (const auto& opt : cursor.options()) {
    const FieldSpec* known = nullptr;
    for (const auto& f : l->fields) {
      if (f.loc != FieldLoc::kFixed && f.tlv_type == opt.type &&
          f.kind == FieldKind::kScalar) {
        known = &f;
        break;
      }
    }
    if (known != nullptr) {
      const auto v = read_bits(*known, opt.value);
      out.push_back(l->name + "." + known->name + " = " +
                    (v ? std::to_string(*v) : std::string("<short read>")));
    } else {
      out.push_back(l->name + ".option_" + std::to_string(opt.type) + " = <" +
                    std::to_string(opt.value.size()) + " bytes>");
    }
  }
  if (!cursor.options().ok()) {
    out.push_back(l->name + ".options = <" +
                  (cursor.options().status() == TlvStatus::kTruncated
                       ? std::string("truncated option")
                       : std::string("option length lie")) +
                  ">");
  }
  return out;
}

}  // namespace sage::net::schema
