#include "sim/network.hpp"

#include <atomic>
#include <cstring>

#include "net/checksum.hpp"
#include "net/icmp.hpp"
#include "net/schema.hpp"
#include "net/udp.hpp"
#include "util/bytes.hpp"

namespace sage::sim {

namespace {
constexpr int kHopBudget = 16;

/// Byte size of the ICMP payload-scalar block (the three 32-bit
/// timestamps) as the schema declares it.
std::size_t icmp_timestamp_block_bytes() {
  static const std::size_t block = [] {
    std::size_t bytes = 0;
    const auto* layer = net::schema::SchemaRegistry::instance().layer("icmp");
    if (layer != nullptr) {
      for (const auto& f : layer->fields) {
        if (f.kind == net::schema::FieldKind::kPayloadScalar) {
          bytes = std::max<std::size_t>(bytes, f.payload_offset + 4);
        }
      }
    }
    return bytes;
  }();
  return block;
}
}

bool icmp_request_well_formed(const net::IcmpMessage& icmp) {
  switch (icmp.type) {
    case net::IcmpType::kEcho:
      // RFC 792 echo: "Code 0"; data is arbitrary.
      return icmp.code == 0;
    case net::IcmpType::kTimestamp:
      // RFC 792 timestamp message: code 0, header + originate/receive/
      // transmit.
      return icmp.code == 0 &&
             icmp.payload.size() == icmp_timestamp_block_bytes();
    case net::IcmpType::kInformationRequest:
      // Information messages: code 0, no data.
      return icmp.code == 0 && icmp.payload.empty();
    default:
      return true;
  }
}

const UdpSocket* Host::udp_socket(std::uint16_t port) const {
  const auto it = udp_sockets_.find(port);
  return it == udp_sockets_.end() ? nullptr : &it->second;
}

bool Router::owns_address(net::IpAddr addr) const {
  for (const auto& ifc : interfaces_) {
    if (ifc.address == addr) return true;
  }
  return false;
}

std::optional<std::size_t> Router::interface_for(net::IpAddr addr) const {
  for (std::size_t i = 0; i < interfaces_.size(); ++i) {
    if (interfaces_[i].address.same_subnet(addr, interfaces_[i].prefix_len)) {
      return i;
    }
  }
  return std::nullopt;
}

const StaticRoute* Router::route_for(net::IpAddr addr) const {
  const StaticRoute* best = nullptr;
  for (const auto& route : routes_) {
    if (route.network.same_subnet(addr, route.prefix_len) &&
        (best == nullptr || route.prefix_len > best->prefix_len)) {
      best = &route;
    }
  }
  return best;
}

Host& Network::add_host(std::string name, net::IpAddr address, int prefix_len) {
  hosts_.push_back(std::make_unique<Host>(std::move(name), address, prefix_len));
  return *hosts_.back();
}

Router& Network::add_router(std::string name) {
  routers_.push_back(std::make_unique<Router>(std::move(name)));
  return *routers_.back();
}

Router* Network::find_router(const std::string& name) {
  for (auto& r : routers_) {
    if (r->name() == name) return r.get();
  }
  return nullptr;
}

Router* Network::find_router_by_address(net::IpAddr addr) {
  for (auto& r : routers_) {
    if (r->owns_address(addr)) return r.get();
  }
  return nullptr;
}

Router* Network::router_serving(net::IpAddr addr) {
  for (auto& r : routers_) {
    if (r->interface_for(addr)) return r.get();
  }
  return nullptr;
}

Host* Network::find_host(const std::string& name) {
  for (auto& h : hosts_) {
    if (h->name() == name) return h.get();
  }
  return nullptr;
}

Host* Network::find_host_by_address(net::IpAddr address) {
  for (auto& h : hosts_) {
    if (h->address() == address) return h.get();
  }
  return nullptr;
}

void Network::set_link(net::IpAddr network, int prefix_len, LinkConfig config) {
  for (auto& [subnet, cfg] : links_) {
    if (subnet.network == network && subnet.prefix_len == prefix_len) {
      cfg = config;
      return;
    }
  }
  links_.push_back({StaticRoute{network, prefix_len, net::IpAddr{}}, config});
}

std::vector<OwnedCaptureEntry> own_capture(
    const std::vector<CaptureEntry>& capture) {
  std::vector<OwnedCaptureEntry> owned;
  owned.reserve(capture.size());
  for (const auto& entry : capture) {
    owned.push_back(
        OwnedCaptureEntry{entry.node, entry.packet.to_vector(), entry.time_ns});
  }
  return owned;
}

std::uint64_t Network::hop_delay(std::span<const std::uint8_t> packet) const {
  if (links_.empty() || packet.size() < 20) return 0;
  const net::IpAddr dst(util::get_be32({packet.data() + 16, 4}));
  const std::pair<StaticRoute, LinkConfig>* best = nullptr;
  for (const auto& link : links_) {
    if (link.first.network.same_subnet(dst, link.first.prefix_len) &&
        (best == nullptr || link.first.prefix_len > best->first.prefix_len)) {
      best = &link;
    }
  }
  return best == nullptr ? 0 : best->second.delay_ns(packet.size());
}

void Network::ensure_index() {
  if (hosts_.size() == indexed_hosts_ && routers_.size() == indexed_routers_) {
    std::size_t interfaces = 0;
    for (const auto& r : routers_) interfaces += r->interfaces().size();
    if (interfaces == indexed_interfaces_) return;
  }
  node_by_name_.clear();
  host_by_addr_.clear();
  router_by_addr_.clear();
  node_by_name_.reserve(hosts_.size() + routers_.size());
  host_by_addr_.reserve(hosts_.size());
  std::size_t interfaces = 0;
  for (auto& r : routers_) {
    node_by_name_.emplace(r->name(), NodeRef{nullptr, r.get()});
    for (const auto& ifc : r->interfaces()) {
      router_by_addr_.emplace(ifc.address.value(), r.get());
      ++interfaces;
    }
  }
  for (auto& h : hosts_) {
    node_by_name_.emplace(h->name(), NodeRef{h.get(), nullptr});
    host_by_addr_.emplace(h->address().value(), h.get());
    // Gateway = first router with an interface on the host's subnet,
    // mirroring router_serving()'s first-match rule.
    Router* gateway = nullptr;
    for (auto& r : routers_) {
      if (r->interface_for(h->address())) {
        gateway = r.get();
        break;
      }
    }
    if (gateway == nullptr && !routers_.empty()) gateway = routers_[0].get();
    h->gateway_ = gateway;
  }
  indexed_hosts_ = hosts_.size();
  indexed_routers_ = routers_.size();
  indexed_interfaces_ = interfaces;
}

Network::NodeRef Network::lookup_node(const std::string& name) {
  const auto it = node_by_name_.find(name);
  return it == node_by_name_.end() ? NodeRef{} : it->second;
}

Router* Network::injection_gateway(NodeRef from) {
  Router* via = from.host != nullptr ? from.host->gateway_ : nullptr;
  return via != nullptr ? via : router();
}

void Network::inject(Pending pending) {
  if (queue_.empty()) {
    // Injection fast path: nothing is scheduled, so the zero-delay part
    // of the cascade runs cut-through; any latency hops land in the
    // queue and are drained below.
    process(std::move(pending));
    if (!queue_.empty()) run();
    return;
  }
  queue_.push(now_ns_, std::move(pending));
  run();
}

void Network::send_from_host(const std::string& host_name,
                             std::span<const std::uint8_t> packet) {
  ensure_index();
  const NodeRef from = lookup_node(host_name);
  if (from.empty()) return;
  inject(Pending{Pending::Kind::kTransmit, from, nullptr, intern(packet),
                 kHopBudget});
}

void Network::send_from_host(Host& host, std::span<const std::uint8_t> packet) {
  ensure_index();
  inject(Pending{Pending::Kind::kTransmit, NodeRef{&host, nullptr}, nullptr,
                 intern(packet), kHopBudget});
}

void Network::send_from_host_via_router(const std::string& host_name,
                                        std::span<const std::uint8_t> packet) {
  ensure_index();
  const NodeRef from = lookup_node(host_name);
  Router* via = from.empty() ? nullptr : injection_gateway(from);
  if (via == nullptr) return;
  inject(Pending{Pending::Kind::kInjectVia, from, via, intern(packet),
                 kHopBudget});
}

void Network::schedule_from_host(const std::string& host_name,
                                 std::span<const std::uint8_t> packet,
                                 std::uint64_t delay_ns, bool via_router) {
  ensure_index();
  const NodeRef from = lookup_node(host_name);
  if (from.empty()) return;
  Router* via = via_router ? injection_gateway(from) : nullptr;
  if (via_router && via == nullptr) return;
  queue_.push(now_ns_ + delay_ns,
              Pending{via_router ? Pending::Kind::kInjectVia
                                 : Pending::Kind::kTransmit,
                      from, via, intern(packet), kHopBudget});
}

std::size_t Network::run() {
  ensure_index();
  std::size_t processed = 0;
  while (!queue_.empty()) {
    auto event = queue_.pop();
    now_ns_ = event.time_ns;  // nondecreasing: events never schedule into the past
    ++processed;
    process(std::move(event.payload));
  }
  return processed;
}

void Network::process(Pending pending) {
  switch (pending.kind) {
    case Pending::Kind::kTransmit:
      // events_processed_ is counted inside transmit(), so cut-through
      // and queued transmissions tally identically.
      transmit(pending.from, std::move(pending.packet), pending.hop_budget);
      return;
    case Pending::Kind::kRouteVia:
      // Counted at the handoff site (route_through_router).
      route_through_router(*pending.via, std::move(pending.packet),
                           pending.hop_budget);
      return;
    case Pending::Kind::kInjectVia:
      ++events_processed_;
      capture_.push_back(
          CaptureEntry{pending.from.name(), pending.packet, now_ns_});
      route_through_router(*pending.via, pending.packet, pending.hop_budget);
      return;
  }
}

namespace {

// Process-wide memory-stability counters behind transient_clear_refusals
// / peak_arena_high_water (relaxed: monotone totals, no ordering needed).
std::atomic<std::uint64_t> g_transient_clear_refusals{0};
std::atomic<std::uint64_t> g_peak_arena_high_water{0};

void note_arena_high_water(std::size_t high_water) {
  std::uint64_t prev = g_peak_arena_high_water.load(std::memory_order_relaxed);
  while (prev < high_water &&
         !g_peak_arena_high_water.compare_exchange_weak(
             prev, high_water, std::memory_order_relaxed)) {
  }
}

}  // namespace

Network::~Network() { note_arena_high_water(arena_.high_water()); }

std::uint64_t Network::total_transient_clear_refusals() {
  return g_transient_clear_refusals.load(std::memory_order_relaxed);
}

std::uint64_t Network::peak_arena_high_water() {
  return g_peak_arena_high_water.load(std::memory_order_relaxed);
}

void Network::clear_transient() {
  capture_.clear();
  for (auto& h : hosts_) {
    h->inbox_.clear();
    for (auto& [port, socket] : h->udp_sockets_) socket.received.clear();
  }
  note_arena_high_water(arena_.high_water());
  // Every view into the arena is gone now — unless events are still
  // queued (schedule_from_host before run()), whose images must survive.
  if (queue_.empty()) {
    arena_.reset();
  } else {
    ++transient_clear_refusals_;
    g_transient_clear_refusals.fetch_add(1, std::memory_order_relaxed);
  }
}

std::size_t Network::approximate_memory_bytes() const {
  std::size_t total = sizeof(Network) + arena_.bytes_reserved();
  for (const auto& h : hosts_) {
    total += sizeof(Host) + h->name().capacity();
    total += h->inbox_.capacity() * sizeof(net::WireImage);
    for (const auto& [port, socket] : h->udp_sockets_) {
      total += sizeof(UdpSocket) +
               socket.received.capacity() * sizeof(net::WireImage);
    }
  }
  for (const auto& r : routers_) {
    total += sizeof(Router) + r->name().capacity();
    total += r->interfaces().capacity() * sizeof(RouterInterface);
    total += r->routes().capacity() * sizeof(StaticRoute);
  }
  for (const auto& entry : capture_) {
    // Packet bytes live in the arena, already counted above.
    total += sizeof(CaptureEntry) + entry.node.capacity();
  }
  total += queue_.size() * (sizeof(Pending) + 2 * sizeof(std::uint64_t));
  total += links_.capacity() * sizeof(std::pair<StaticRoute, LinkConfig>);
  total += node_by_name_.size() *
           (sizeof(std::string) + sizeof(NodeRef) + 2 * sizeof(void*));
  total += (host_by_addr_.size() + router_by_addr_.size()) *
           (sizeof(std::uint64_t) + 3 * sizeof(void*));
  return total;
}

std::vector<std::uint8_t> Network::capture_to_pcap() const {
  // Serialized in one pass with a single exact reservation — the packet
  // bytes come straight out of the arena-backed capture views instead of
  // being copied into intermediate PcapWriter records. The byte stream
  // is identical to net::PcapWriter's (little-endian v2.4 header,
  // LINKTYPE_RAW), which tests/test_sim_kernel.cpp pins via pcap hash
  // goldens.
  std::size_t total = 24;
  for (const auto& entry : capture_) total += 16 + entry.packet.size();
  std::vector<std::uint8_t> out;
  out.reserve(total);
  const auto le32 = [&out](std::uint32_t v) {
    out.push_back(static_cast<std::uint8_t>(v & 0xff));
    out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
    out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
    out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
  };
  le32(0xa1b2c3d4);          // magic, little-endian writer
  le32(4u << 16 | 2u);       // version 2.4 (major LE16, minor LE16)
  le32(0);                   // thiszone
  le32(0);                   // sigfigs
  le32(65535);               // snaplen
  le32(101);                 // LINKTYPE_RAW
  std::uint32_t t = 0;
  for (const auto& entry : capture_) {
    le32(t / 1000000);
    le32(t % 1000000);
    le32(static_cast<std::uint32_t>(entry.packet.size()));  // incl_len
    le32(static_cast<std::uint32_t>(entry.packet.size()));  // orig_len
    out.insert(out.end(), entry.packet.begin(), entry.packet.end());
    t += 1000;  // 1ms between transmissions keeps ordering visible
  }
  return out;
}

// ---------------------------------------------------------------------------
// Delivery. Node lookups go through the hash indexes, the sending entity
// rides along in the event instead of being re-resolved from its name
// each hop, and every new transmission is either dispatched inline (an
// ideal wire) or becomes a queue event stamped now + hop_delay(). At zero
// link delay each injected packet unfolds as one depth-first chain, the
// order the seed's synchronous recursion produced — the capture-log
// goldens in tests/test_sim_kernel.cpp hold it there.
//
// Packets are immutable arena images (net::WireImage): captures, inbox
// entries, and queued events alias the same bytes, so a hop moves two
// words. The one mutation — the forward path's TTL decrement — copies
// on patch into a fresh arena image instead of touching bytes that
// earlier captures already alias.
// ---------------------------------------------------------------------------

void Network::transmit(NodeRef from, net::WireImage packet, int hop_budget,
                       const net::Ipv4Header* pre) {
  if (hop_budget <= 0) return;  // loop protection
  ++events_processed_;
  capture_.push_back(CaptureEntry{from.name(), packet, now_ns_});

  std::optional<net::Ipv4Header> parsed;
  if (pre == nullptr) {
    parsed = net::Ipv4Header::parse(packet);
    if (!parsed) return;
  }
  const net::Ipv4Header& hdr = pre != nullptr ? *pre : *parsed;

  Host* from_host = from.host;
  Router* from_router = from.router;

  const auto dst_it = host_by_addr_.find(hdr.dst.value());
  if (dst_it != host_by_addr_.end()) {
    Host* dst_host = dst_it->second;
    // A router delivers onto any of its own subnets; a host reaches
    // same-subnet neighbours directly.
    const bool direct =
        (from_router != nullptr &&
         from_router->interface_for(dst_host->address()).has_value()) ||
        (from_host != nullptr &&
         from_host->address().same_subnet(dst_host->address(),
                                          from_host->prefix_len()));
    if (direct) {
      deliver_to_host(*dst_host, packet, hop_budget, hdr);
      return;
    }
  }
  if (from_host != nullptr) {
    Router* gateway = from_host->gateway_;
    if (gateway != nullptr) {
      route_through_router(*gateway, packet, hop_budget, &hdr);
    }
    return;
  }
  if (from_router != nullptr) {
    if (from_router->interface_for(hdr.dst)) {
      // The destination subnet is directly attached but no such host
      // exists: the packet falls off the simulated edge.
      return;
    }
    // Router-originated traffic (ICMP errors/replies) for a non-attached
    // destination consults the router's own tables.
    route_through_router(*from_router, packet, hop_budget - 1, &hdr);
  }
}

void Network::send_reply(NodeRef from,
                         std::optional<std::vector<std::uint8_t>> reply,
                         int hop_budget) {
  if (!reply) return;
  // Responders build replies as owned vectors; intern once here so the
  // rest of the reply's journey aliases arena bytes.
  const net::WireImage image = intern(*reply);
  const std::uint64_t at = now_ns_ + hop_delay(image);
  if (at == now_ns_) {  // ideal wire: dispatch cut-through
    transmit(from, image, hop_budget - 1);
    return;
  }
  queue_.push(at, Pending{Pending::Kind::kTransmit, from, nullptr, image,
                          hop_budget - 1});
}

void Network::deliver_to_host(Host& host, net::WireImage packet,
                              int hop_budget, const net::Ipv4Header& hdr) {
  const NodeRef self{&host, nullptr};
  const std::span<const std::uint8_t> payload(
      packet.data() + hdr.header_length(), packet.size() - hdr.header_length());
  const ResponderContext ctx{host.address(), packet};

  if (hdr.protocol == static_cast<std::uint8_t>(net::IpProto::kIcmp)) {
    const auto icmp = net::IcmpMessage::parse(payload);
    if (icmp && host.responder_ != nullptr && icmp_request_well_formed(*icmp)) {
      switch (icmp->type) {
        case net::IcmpType::kEcho:
          send_reply(self, host.responder_->on_echo_request(ctx), hop_budget);
          return;
        case net::IcmpType::kTimestamp:
          send_reply(self, host.responder_->on_timestamp_request(ctx),
                   hop_budget);
          return;
        case net::IcmpType::kInformationRequest:
          send_reply(self, host.responder_->on_information_request(ctx),
                   hop_budget);
          return;
        default:
          break;  // replies/errors go to the inbox below
      }
    }
    host.inbox_.push_back(packet);
    return;
  }

  if (hdr.protocol == static_cast<std::uint8_t>(net::IpProto::kUdp)) {
    const auto udp = net::UdpHeader::parse(payload);
    if (udp) {
      auto it = host.udp_sockets_.find(udp->dst_port);
      if (it != host.udp_sockets_.end()) {
        // The payload view aliases the packet's arena image — receiving
        // UDP data is a subview, not a copy.
        it->second.received.push_back(net::WireImage(payload.subspan(8)));
        return;
      }
      // Closed port: RFC 792 destination unreachable, code 3.
      if (host.responder_ != nullptr) {
        send_reply(self, host.responder_->on_destination_unreachable(ctx, 3),
                 hop_budget);
        return;
      }
    }
  }

  host.inbox_.push_back(packet);
}

void Network::route_through_router(Router& r, net::WireImage packet,
                                   int hop_budget, const net::Ipv4Header* pre) {
  if (hop_budget <= 0) return;
  std::optional<net::Ipv4Header> parsed;
  if (pre == nullptr) {
    parsed = net::Ipv4Header::parse(packet);
    if (!parsed) return;
  }
  const net::Ipv4Header& hdr = pre != nullptr ? *pre : *parsed;
  const NodeRef self{nullptr, &r};

  const auto ingress = r.interface_for(hdr.src);
  IcmpResponder* resp = r.responder_;
  // The forward path never consults the responder, so its context (the
  // ingress interface address + triggering packet) is built lazily on
  // the reply branches only.
  const auto make_ctx = [&]() -> ResponderContext {
    const net::IpAddr router_addr =
        ingress ? r.interfaces()[*ingress].address
                : (r.interfaces().empty() ? net::IpAddr{}
                                          : r.interfaces()[0].address);
    return ResponderContext{router_addr, packet};
  };

  // Packets addressed to the router itself: ICMP requests get answered.
  if (r.owns_address(hdr.dst)) {
    if (hdr.protocol == static_cast<std::uint8_t>(net::IpProto::kIcmp) &&
        resp != nullptr) {
      const std::span<const std::uint8_t> payload(
          packet.data() + hdr.header_length(),
          packet.size() - hdr.header_length());
      const auto icmp = net::IcmpMessage::parse(payload);
      if (icmp && icmp_request_well_formed(*icmp)) {
        switch (icmp->type) {
          case net::IcmpType::kEcho:
            send_reply(self, resp->on_echo_request(make_ctx()), hop_budget);
            return;
          case net::IcmpType::kTimestamp:
            send_reply(self, resp->on_timestamp_request(make_ctx()),
                       hop_budget);
            return;
          case net::IcmpType::kInformationRequest:
            send_reply(self, resp->on_information_request(make_ctx()),
                       hop_budget);
            return;
          default:
            return;  // errors/replies addressed to the router are consumed
        }
      }
    }
    return;
  }

  if (!r.behavior_.icmp_errors_enabled) resp = nullptr;

  // Appendix A, Parameter Problem: unsupported type-of-service. The
  // pointer (1) is the byte offset of the TOS field in the IP header.
  if (r.behavior_.require_tos_zero && hdr.tos != 0) {
    if (resp != nullptr) {
      send_reply(self, resp->on_parameter_problem(make_ctx(), 1), hop_budget);
    }
    return;
  }

  const auto egress = r.interface_for(hdr.dst);
  const StaticRoute* route = egress ? nullptr : r.route_for(hdr.dst);
  if (!egress && route == nullptr) {
    // Appendix A, Destination Unreachable: no route (code 0, net
    // unreachable).
    if (resp != nullptr) {
      send_reply(self, resp->on_destination_unreachable(make_ctx(), 0),
                 hop_budget);
    }
    return;
  }

  // Appendix A, Time Exceeded: TTL would reach zero in transit.
  if (hdr.ttl <= 1) {
    if (resp != nullptr) {
      send_reply(self, resp->on_time_exceeded(make_ctx()), hop_budget);
    }
    return;
  }

  // Appendix A, Source Quench: the outbound buffer for the egress
  // interface is full, so the datagram is discarded.
  if (egress && r.behavior_.full_outbound_interface &&
      *r.behavior_.full_outbound_interface == *egress) {
    if (resp != nullptr) {
      send_reply(self, resp->on_source_quench(make_ctx()), hop_budget);
    }
    return;
  }

  // Appendix A, Redirect: the next gateway for the destination lies on
  // the sender's own subnet, so the sender should go direct.
  if (egress && ingress && *ingress == *egress) {
    if (resp != nullptr) {
      send_reply(self, resp->on_redirect(make_ctx(), hdr.dst), hop_budget);
    }
    return;
  }

  // Forward: decrement TTL and patch the header checksum incrementally
  // (RFC 1624), then put it on the egress subnet or hand it to the
  // next-hop router of the matching static route. In-flight images are
  // immutable (earlier captures alias these bytes), so the patch copies
  // into a fresh arena image — a bump allocation, not a heap round trip.
  std::uint8_t* fwd_bytes = arena_.allocate(packet.size(), 1);
  std::memcpy(fwd_bytes, packet.data(), packet.size());
  const std::uint16_t old_ttl_proto = util::get_be16({fwd_bytes + 8, 2});
  fwd_bytes[8] = static_cast<std::uint8_t>(hdr.ttl - 1);
  const std::uint16_t new_ttl_proto = util::get_be16({fwd_bytes + 8, 2});
  const std::uint16_t old_ck = util::get_be16({fwd_bytes + 10, 2});
  util::put_be16({fwd_bytes + 10, 2},
                 net::incremental_checksum_update(old_ck, old_ttl_proto,
                                                  new_ttl_proto));
  const net::WireImage patched(fwd_bytes, packet.size());
  net::Ipv4Header fwd = hdr;
  fwd.ttl = hdr.ttl - 1;
  const std::uint64_t at = now_ns_ + hop_delay(patched);
  if (route != nullptr) {
    ++events_processed_;
    capture_.push_back(CaptureEntry{r.name(), patched, now_ns_});
    const auto next_it = router_by_addr_.find(route->next_hop.value());
    if (next_it != router_by_addr_.end()) {
      if (at == now_ns_) {  // ideal wire: hand off cut-through
        route_through_router(*next_it->second, patched, hop_budget - 1, &fwd);
        return;
      }
      queue_.push(at, Pending{Pending::Kind::kRouteVia, self, next_it->second,
                              patched, hop_budget - 1});
    }
    return;
  }
  if (at == now_ns_) {  // ideal wire: transmit cut-through
    transmit(self, patched, hop_budget - 1, &fwd);
    return;
  }
  queue_.push(at, Pending{Pending::Kind::kTransmit, self, nullptr, patched,
                          hop_budget - 1});
}

Network make_appendix_a_network() {
  Network net;
  Router& r = net.add_router("r");
  r.add_interface(net::IpAddr(10, 0, 1, 1), 24);
  r.add_interface(net::IpAddr(192, 168, 2, 1), 24);
  r.add_interface(net::IpAddr(172, 64, 3, 1), 24);
  net.add_host("client", net::IpAddr(10, 0, 1, 100), 24);
  net.add_host("server1", net::IpAddr(192, 168, 2, 100), 24);
  net.add_host("server2", net::IpAddr(172, 64, 3, 100), 24);
  return net;
}

}  // namespace sage::sim
