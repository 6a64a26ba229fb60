// interop_traffic — §6.2's interop run at scale.
//
// Op: one request packet injected and its reply validated. SAGE's ICMP
// handlers, generated from RFC 792 revised and compiled once at set-up,
// answer on every router and host of a generated 256-host fat-tree. A
// seeded mix drives them: pings with 0..1400-byte payloads, pings to
// router interfaces, traceroutes, timestamp and information requests,
// probes to closed UDP ports and to unrouted networks, TTL-limited pings,
// and ICMPv6 events fired straight at the generated ICMPv6 responder
// (the simulator carries no IPv6). Every round has the same make-up;
// the round count is fixed by --seconds.
//
// Checks (untimed): the same traffic replayed on a twin fat-tree whose
// nodes run ReferenceIcmpResponder yields an equal capture per op
// (byte-equal, or equal as decoded by the packet inspector); every ping
// passes the ping model; every traceroute reaches its destination in as
// many hops as the benchmark counts routers on the path by walking the
// topology's routes; every ICMPv6 reply is byte-equal to
// ReferenceIcmp6Responder's.
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>

#include "bench.hpp"
#include "codegen/generator.hpp"
#include "core/sage.hpp"
#include "corpus/rfc4443.hpp"
#include "corpus/rfc792.hpp"
#include "eval/interop_harness.hpp"
#include "net/icmp.hpp"
#include "net/ipv4.hpp"
#include "net/ipv6.hpp"
#include "net/udp.hpp"
#include "runtime/generated_responder.hpp"
#include "runtime/generated_responder6.hpp"
#include "runtime/schema_env.hpp"
#include "runtime/vm/exec.hpp"
#include "runtime/vm/program.hpp"
#include "sim/ping.hpp"
#include "sim/reference_responder6.hpp"
#include "sim/topology.hpp"
#include "sim/traceroute.hpp"
#include "util/bytes.hpp"

namespace perfbench {

using namespace sage;

namespace {

constexpr std::size_t kHosts = 256;
// Rounds per calibrated piece, rounds per block (one repetition), and
// blocks per nominal second.
constexpr std::size_t kRoundsPerPiece = 4;
constexpr std::size_t kRoundsPerBlock = 40;
constexpr double kBlocksPerSecond = 25.0;
// Triggers kept for the traced run's env / VM / reply split.
constexpr std::size_t kMaxTriggers = 20000;

enum class Kind : std::uint8_t {
  kPingHost,
  kPingRouter,
  kTraceroute,
  kTimestamp,
  kInformation,
  kUdpClosed,
  kUnrouted,
  kTtlLimited,
  kV6Echo,
  kV6Unreachable,
  kV6TooBig,
  kV6TimeExceeded,
  kV6ParameterProblem,
};

bool is_v6(Kind k) { return k >= Kind::kV6Echo; }

struct Op {
  Kind kind;
  std::uint16_t src = 0;  // host index
  net::IpAddr dst;
  std::uint16_t size = 0;  // payload bytes
  std::uint8_t ttl = 64;
  std::uint8_t code = 0;
  std::uint16_t seq = 0;
};

/// What one op produced: the capture (or ICMPv6 reply) hash, whether the
/// client-side validation accepted it, and the packets it injected.
struct Outcome {
  std::uint64_t hash = 0;
  bool accepted = false;
  std::size_t injected = 0;
  std::size_t hops = 0;  // traceroute only
};

// -- the responder boundary --------------------------------------------------

enum class Event : std::uint8_t {
  kEcho,
  kTimestamp,
  kInformation,
  kUnreachable,
  kTimeExceeded,
  kParameterProblem,
  kSourceQuench,
  kRedirect,
};

struct Trigger {
  Event event;
  net::IpAddr own;
  std::vector<std::uint8_t> packet;
  std::uint8_t param = 0;  // unreachable code / problem pointer
  net::IpAddr gateway;
  std::optional<std::vector<std::uint8_t>> reply;
};

/// Delegates every event to the generated responder. Counts allocations
/// per reply, records a span per call when tracing, keeps the first
/// kMaxTriggers triggers for the replay split, and (selftest only) flips
/// one reply byte.
class DelegatingResponder : public sim::IcmpResponder {
 public:
  using Reply = std::optional<std::vector<std::uint8_t>>;
  DelegatingResponder(runtime::GeneratedIcmpResponder* inner, bool record,
                      bool flip)
      : inner_(inner), record_(record), flip_(flip) {}

  std::uint64_t calls = 0;
  std::uint64_t allocations = 0;
  std::vector<Trigger> triggers;

  Reply on_echo_request(const sim::ResponderContext& c) override {
    return call(Event::kEcho, c, 0, {}, [&] { return inner_->on_echo_request(c); });
  }
  Reply on_timestamp_request(const sim::ResponderContext& c) override {
    return call(Event::kTimestamp, c, 0, {},
                [&] { return inner_->on_timestamp_request(c); });
  }
  Reply on_information_request(const sim::ResponderContext& c) override {
    return call(Event::kInformation, c, 0, {},
                [&] { return inner_->on_information_request(c); });
  }
  Reply on_destination_unreachable(const sim::ResponderContext& c,
                                   std::uint8_t code) override {
    return call(Event::kUnreachable, c, code, {},
                [&] { return inner_->on_destination_unreachable(c, code); });
  }
  Reply on_time_exceeded(const sim::ResponderContext& c) override {
    return call(Event::kTimeExceeded, c, 0, {},
                [&] { return inner_->on_time_exceeded(c); });
  }
  Reply on_parameter_problem(const sim::ResponderContext& c,
                             std::uint8_t pointer) override {
    return call(Event::kParameterProblem, c, pointer, {},
                [&] { return inner_->on_parameter_problem(c, pointer); });
  }
  Reply on_source_quench(const sim::ResponderContext& c) override {
    return call(Event::kSourceQuench, c, 0, {},
                [&] { return inner_->on_source_quench(c); });
  }
  Reply on_redirect(const sim::ResponderContext& c, net::IpAddr g) override {
    return call(Event::kRedirect, c, 0, g, [&] { return inner_->on_redirect(c, g); });
  }

 private:
  template <typename F>
  Reply call(Event event, const sim::ResponderContext& c, std::uint8_t param,
             net::IpAddr gateway, F&& inner) {
    ++calls;
    Reply reply;
    {
      Span span("runtime.respond");
      const std::uint64_t a0 = thread_allocations();
      reply = inner();
      allocations += thread_allocations() - a0;
    }
    if (record_ && triggers.size() < kMaxTriggers) {
      triggers.push_back(Trigger{event, c.own_address,
                                 {c.triggering_packet.begin(),
                                  c.triggering_packet.end()},
                                 param, gateway, reply});
    }
    if (flip_ && reply && reply->size() > 24) (*reply)[24] ^= 0x01;
    return reply;
  }

  runtime::GeneratedIcmpResponder* inner_;
  bool record_;
  bool flip_;
};

/// Selftest only: flips one byte of every generated ICMPv6 reply.
class FlipV6Responder : public sim::Icmp6Responder {
 public:
  using Reply = std::optional<std::vector<std::uint8_t>>;
  explicit FlipV6Responder(sim::Icmp6Responder* inner) : inner_(inner) {}
  static Reply flip(Reply r) {
    if (r && r->size() > 44) (*r)[44] ^= 0x01;
    return r;
  }
  Reply on_echo_request(const sim::Responder6Context& c) override {
    return flip(inner_->on_echo_request(c));
  }
  Reply on_destination_unreachable(const sim::Responder6Context& c,
                                   std::uint8_t code) override {
    return flip(inner_->on_destination_unreachable(c, code));
  }
  Reply on_packet_too_big(const sim::Responder6Context& c) override {
    return flip(inner_->on_packet_too_big(c));
  }
  Reply on_time_exceeded(const sim::Responder6Context& c,
                         std::uint8_t code) override {
    return flip(inner_->on_time_exceeded(c, code));
  }
  Reply on_parameter_problem(const sim::Responder6Context& c, std::uint8_t code,
                             std::uint8_t pointer) override {
    return flip(inner_->on_parameter_problem(c, code, pointer));
  }

 private:
  sim::Icmp6Responder* inner_;
};

// -- topology helpers ---------------------------------------------------------

sim::Router* gateway_of(sim::Topology& topo, net::IpAddr host) {
  for (sim::Router* r : topo.routers) {
    if (r->interface_for(host)) return r;
  }
  return nullptr;
}

/// Routers a packet from `src` to `dst` crosses, counted by walking the
/// static routes (0 when the walk does not end at `dst`'s router).
std::size_t routers_on_path(sim::Topology& topo, net::IpAddr src,
                            net::IpAddr dst) {
  sim::Router* r = gateway_of(topo, src);
  for (std::size_t n = 1; r != nullptr && n <= 16; ++n) {
    if (r->interface_for(dst)) return n;
    const sim::StaticRoute* route = r->route_for(dst);
    if (route == nullptr) return 0;
    r = topo.net.find_router_by_address(route->next_hop);
  }
  return 0;
}

std::uint64_t capture_hash(const sim::Network& net) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& entry : net.capture()) {
    h = fnv1a(entry.node, h);
    for (const std::uint8_t b : entry.packet.span()) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
    h = fnv1a("|", h);
  }
  return h;
}

std::vector<std::uint8_t> icmp_request(net::IpAddr src, net::IpAddr dst,
                                       net::IcmpType type, std::uint16_t seq,
                                       std::size_t payload) {
  net::IcmpMessage icmp;
  icmp.type = type;
  icmp.code = 0;
  icmp.set_identifier(0x2a17);
  icmp.set_sequence_number(seq);
  icmp.payload.assign(payload, 0);
  if (type == net::IcmpType::kTimestamp) icmp.set_timestamps(0x01020304, 0, 0);
  net::Ipv4Header ip;
  ip.protocol = static_cast<std::uint8_t>(net::IpProto::kIcmp);
  ip.ttl = 64;
  ip.src = src;
  ip.dst = dst;
  ip.identification = seq;
  return net::build_ipv4_packet(ip, icmp.serialize());
}

std::vector<std::uint8_t> udp_probe(net::IpAddr src, net::IpAddr dst,
                                    std::uint16_t port) {
  net::UdpHeader udp;
  udp.src_port = 40000;
  udp.dst_port = port;
  const std::vector<std::uint8_t> data(32, 0x42);
  net::Ipv4Header ip;
  ip.protocol = static_cast<std::uint8_t>(net::IpProto::kUdp);
  ip.ttl = 64;
  ip.src = src;
  ip.dst = dst;
  ip.identification = port;
  return net::build_ipv4_packet(ip, udp.serialize(src, dst, data));
}

/// The last packet in the client's inbox is an ICMP message of `type`
/// (and `code`), answering our identifier/sequence when it echoes them.
bool inbox_reply_is(sim::Host& client, std::size_t before, net::IcmpType type,
                    int code, std::uint16_t seq) {
  if (client.inbox().size() != before + 1) return false;
  const auto bytes = client.inbox().back().span();
  const auto ip = net::Ipv4Header::parse(bytes);
  if (!ip) return false;
  const auto icmp = net::IcmpMessage::parse(bytes.subspan(ip->header_length()));
  if (!icmp || icmp->type != type || (code >= 0 && icmp->code != code)) {
    return false;
  }
  if (type == net::IcmpType::kTimestampReply ||
      type == net::IcmpType::kInformationReply) {
    return icmp->identifier() == 0x2a17 && icmp->sequence_number() == seq;
  }
  return true;
}

// -- ICMPv6 -------------------------------------------------------------------

const net::Ip6Addr kV6Own = net::Ip6Addr::from_groups(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2);
const net::Ip6Addr kV6Peer = net::Ip6Addr::from_groups(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1);

std::vector<std::uint8_t> v6_packet(const Op& op) {
  net::Ipv6Header ip;
  ip.src = kV6Peer;
  ip.dst = kV6Own;
  ip.next_header = net::kIpProtoIcmp6;
  std::vector<std::uint8_t> msg(8, 0);
  msg[0] = 128;  // echo request
  util::put_be16({msg.data() + 4, 2}, 0x2a17);
  util::put_be16({msg.data() + 6, 2}, op.seq);
  for (std::size_t i = 0; i < op.size; ++i) {
    msg.push_back(static_cast<std::uint8_t>(0x10 + i));
  }
  util::put_be16({msg.data() + 2, 2}, net::icmp6_checksum(ip.src, ip.dst, msg));
  return net::build_ipv6_packet(ip, msg);
}

std::optional<std::vector<std::uint8_t>> fire_v6(sim::Icmp6Responder& r,
                                                 const Op& op,
                                                 const std::vector<std::uint8_t>& packet) {
  const sim::Responder6Context ctx{kV6Own, packet};
  switch (op.kind) {
    case Kind::kV6Echo: return r.on_echo_request(ctx);
    case Kind::kV6Unreachable: return r.on_destination_unreachable(ctx, op.code);
    case Kind::kV6TooBig: return r.on_packet_too_big(ctx);
    case Kind::kV6TimeExceeded: return r.on_time_exceeded(ctx, op.code);
    default: return r.on_parameter_problem(ctx, op.code, 6);
  }
}

std::uint64_t reply_hash(const std::optional<std::vector<std::uint8_t>>& reply) {
  return reply ? fnv1a_bytes(*reply) : 0;
}

// -- one op -------------------------------------------------------------------

/// Run one op on `topo` (IPv4) or `r6` (ICMPv6). Returns its outcome; the
/// caller hashes nothing else, so the same function serves the timed run
/// and both twins of the check.
Outcome run_op(sim::Topology& topo, sim::Icmp6Responder& r6, const Op& op) {
  Outcome out;
  if (is_v6(op.kind)) {
    const auto packet = v6_packet(op);
    std::optional<std::vector<std::uint8_t>> reply;
    {
      Span span("runtime.icmp6_respond");
      reply = fire_v6(r6, op, packet);
    }
    out.hash = reply_hash(reply);
    out.accepted = reply.has_value();
    out.injected = 1;
    return out;
  }
  sim::Host& client = *topo.hosts[op.src];
  const std::size_t before = client.inbox().size();
  {
    Span span("sim.network");
    switch (op.kind) {
      case Kind::kPingHost:
      case Kind::kPingRouter:
      case Kind::kUnrouted:
      case Kind::kTtlLimited: {
        sim::PingOptions opts;
        opts.sequence = op.seq;
        opts.payload_size = op.size;
        opts.ttl = op.ttl;
        opts.expect = op.kind == Kind::kUnrouted
                          ? sim::PingExpect::kDestinationUnreachable
                      : op.kind == Kind::kTtlLimited ? sim::PingExpect::kTimeExceeded
                                                     : sim::PingExpect::kEchoReply;
        sim::PingClient ping;
        out.accepted = ping.ping(topo.net, client.name(), op.dst, opts).success;
        out.injected = 1;
        break;
      }
      case Kind::kTraceroute: {
        sim::TracerouteClient tr;
        const auto result = tr.trace(topo.net, client.name(), op.dst, 8);
        out.hops = result.hops.size();
        out.injected = result.hops.size();
        out.accepted = result.reached_destination;
        break;
      }
      case Kind::kTimestamp:
      case Kind::kInformation: {
        const bool ts = op.kind == Kind::kTimestamp;
        topo.net.send_from_host(
            client, icmp_request(client.address(), op.dst,
                                 ts ? net::IcmpType::kTimestamp
                                    : net::IcmpType::kInformationRequest,
                                 op.seq, ts ? 12 : 0));
        out.accepted = inbox_reply_is(
            client, before,
            ts ? net::IcmpType::kTimestampReply : net::IcmpType::kInformationReply,
            0, op.seq);
        out.injected = 1;
        break;
      }
      default: {  // kUdpClosed
        topo.net.send_from_host(client,
                                udp_probe(client.address(), op.dst, op.seq));
        out.accepted = inbox_reply_is(client, before,
                                      net::IcmpType::kDestinationUnreachable, 3, 0);
        out.injected = 1;
        break;
      }
    }
  }
  out.hash = capture_hash(topo.net);
  return out;
}

/// The packet inspector's decode of every captured packet, in order.
std::vector<std::vector<std::string>> decoded_capture(const sim::Network& net) {
  std::vector<std::vector<std::string>> out;
  for (const auto& entry : net.capture()) {
    std::vector<std::string> lines = {entry.node};
    for (auto& l : eval::decode_packet(entry.packet.span())) lines.push_back(l);
    out.push_back(std::move(lines));
  }
  return out;
}

// -- traffic ------------------------------------------------------------------

struct Traffic {
  std::vector<Op> ops;  // all rounds, in order
  std::size_t ops_per_round = 0;
  std::size_t packets_per_round = 0;
  std::size_t trace_hops = 0;  // routers on every traceroute path, + 1
};

Traffic make_traffic(sim::Topology& topo, std::uint64_t seed, std::size_t rounds) {
  Rng rng(seed);
  Traffic t;
  const std::size_t n = topo.hosts.size();
  const auto host_addr = [&](std::size_t i) { return topo.hosts[i]->address(); };
  // Traceroutes run between hosts at the longest path length, so every
  // traceroute injects the same number of probes.
  std::size_t longest = 0;
  for (std::size_t j = 1; j < n; ++j) {
    longest = std::max(longest, routers_on_path(topo, host_addr(0), host_addr(j)));
  }
  t.trace_hops = longest + 1;
  const auto pair = [&](std::size_t want_routers) {
    while (true) {
      const std::size_t a = rng.below(n);
      const std::size_t b = rng.below(n);
      if (a == b) continue;
      if (want_routers == 0 ||
          routers_on_path(topo, host_addr(a), host_addr(b)) == want_routers) {
        return std::pair<std::size_t, std::size_t>(a, b);
      }
    }
  };
  std::uint16_t seq = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<Op> r;
    // 16 host pings, payload sizes stratified over 0..1400 bytes.
    for (std::size_t i = 0; i < 16; ++i) {
      const auto [a, b] = pair(0);
      const auto size = static_cast<std::uint16_t>(i * 87 + rng.below(87));
      r.push_back({Kind::kPingHost, static_cast<std::uint16_t>(a), host_addr(b), size});
    }
    for (std::size_t i = 0; i < 2; ++i) {
      const auto [a, b] = pair(0);
      const sim::Router* gw = gateway_of(topo, host_addr(b));
      r.push_back({Kind::kPingRouter, static_cast<std::uint16_t>(a),
                   gw->interface_for(host_addr(b)).has_value()
                       ? gw->interfaces()[*gw->interface_for(host_addr(b))].address
                       : host_addr(b),
                   56});
    }
    {
      const auto [a, b] = pair(longest);
      r.push_back({Kind::kTraceroute, static_cast<std::uint16_t>(a), host_addr(b)});
    }
    for (const Kind k : {Kind::kTimestamp, Kind::kInformation, Kind::kUdpClosed}) {
      for (std::size_t i = 0; i < 2; ++i) {
        const auto [a, b] = pair(0);
        r.push_back({k, static_cast<std::uint16_t>(a), host_addr(b)});
      }
    }
    for (std::size_t i = 0; i < 2; ++i) {
      r.push_back({Kind::kUnrouted, static_cast<std::uint16_t>(rng.below(n)),
                   net::IpAddr(198, 51, 100, static_cast<std::uint8_t>(1 + rng.below(254))),
                   56});
      // TTL-limited pings cross at least two routers.
      const auto [a, b] = pair(longest);
      Op op{Kind::kTtlLimited, static_cast<std::uint16_t>(a), host_addr(b), 56};
      op.ttl = static_cast<std::uint8_t>(1 + rng.below(2));
      r.push_back(op);
    }
    for (const Kind k : {Kind::kV6Echo, Kind::kV6Unreachable, Kind::kV6TooBig,
                         Kind::kV6TimeExceeded, Kind::kV6ParameterProblem}) {
      Op op{k, 0, net::IpAddr(), 0};
      op.size = static_cast<std::uint16_t>(rng.below(1400));
      op.code = static_cast<std::uint8_t>(
          k == Kind::kV6Unreachable ? rng.below(5)
          : k == Kind::kV6TimeExceeded ? rng.below(2)
          : k == Kind::kV6ParameterProblem ? rng.below(3) : 0);
      r.push_back(op);
    }
    rng.shuffle(r);
    for (Op& op : r) {
      op.seq = ++seq;
      if (op.kind == Kind::kUdpClosed) op.seq = static_cast<std::uint16_t>(33434 + 100 + (seq % 1000));
      t.ops.push_back(op);
    }
    t.ops_per_round = r.size();
  }
  t.packets_per_round = t.ops_per_round - 1 + t.trace_hops;
  return t;
}

// -- the replay split (traced runs) ------------------------------------------

struct EventCode {
  const char* message;
  const char* role;
  bool from_incoming;
  const char* scenario;
};

EventCode event_code(const Trigger& t) {
  switch (t.event) {
    case Event::kEcho:
      return {"Echo or Echo Reply Message", "receiver", true, "echo reply message"};
    case Event::kTimestamp:
      return {"Timestamp or Timestamp Reply Message", "receiver", true,
              "timestamp reply message"};
    case Event::kInformation:
      return {"Information Request or Information Reply Message", "receiver",
              true, "information reply message"};
    case Event::kUnreachable: {
      static const char* kScenario[] = {
          "net unreachable",      "host unreachable",
          "protocol unreachable", "port unreachable",
          "fragmentation needed and df set", "source route failed"};
      return {"Destination Unreachable Message", "sender", false,
              t.param < 6 ? kScenario[t.param] : kScenario[0]};
    }
    case Event::kTimeExceeded:
      return {"Time Exceeded Message", "sender", false,
              "time to live exceeded in transit"};
    case Event::kParameterProblem:
      return {"Parameter Problem Message", "sender", false,
              "pointer indicates the error"};
    case Event::kSourceQuench:
      return {"Source Quench Message", "sender", false, "source quench"};
    case Event::kRedirect:
      return {"Redirect Message", "sender", false, "redirect datagrams for the host"};
  }
  return {"", "", false, ""};
}

/// Replay captured triggers through the runtime's public pieces:
/// SchemaExecEnv::icmp, vm::execute, finish_reply. Returns the number of
/// replies that differ from the responder's (check I5).
std::size_t replay_triggers(const std::vector<Trigger>& triggers,
                            const std::map<std::string, runtime::vm::Program>& programs) {
  std::size_t mismatches = 0;
  for (const Trigger& t : triggers) {
    const EventCode code = event_code(t);
    const auto it = programs.find(
        codegen::CodeGenerator::function_name("ICMP", code.message, code.role));
    if (it == programs.end()) {
      mismatches += t.reply.has_value();
      continue;
    }
    std::optional<runtime::SchemaExecEnv> env;
    {
      Span span("runtime.env_build");
      env.emplace(runtime::SchemaExecEnv::icmp(t.packet, t.own, code.from_incoming));
      env->set_scenario(code.scenario);
      if (t.event == Event::kParameterProblem) env->set_error_pointer(t.param);
      if (t.event == Event::kRedirect) env->set_better_gateway(t.gateway);
    }
    bool ok = false;
    {
      Span span("runtime.vm_exec");
      ok = env->valid() && runtime::vm::execute(it->second, *env).ok;
    }
    std::optional<std::vector<std::uint8_t>> reply;
    if (ok) {
      Span span("runtime.finish_reply");
      reply = env->finish_reply();
    }
    mismatches += reply != t.reply;
  }
  return mismatches;
}

}  // namespace

Result run_interop_traffic(const Options& options) {
  Result result;
  Calibrator calib;
  SetupClock setup(&calib);
  Tracer::instance().enable(options.trace);

  setup.phase("compile_handlers");
  core::ProtocolRun run4;
  core::ProtocolRun run6;
  {
    core::Sage sage;
    sage.annotate_non_actionable(corpus::icmp_non_actionable_annotations());
    run4 = sage.process(corpus::rfc792_revised(), "ICMP");
  }
  {
    core::Sage sage;
    sage.annotate_non_actionable(corpus::icmp6_non_actionable_annotations());
    run6 = sage.process(corpus::rfc4443_revised(), "ICMP6");
  }
  runtime::GeneratedIcmpResponder generated;
  std::map<std::string, runtime::vm::Program> programs;
  double program_bytes = 0.0;
  for (const auto& fn : run4.functions) {
    generated.add_function(fn);
    if (auto program = runtime::vm::compile(fn)) {
      program_bytes += static_cast<double>(program->program_bytes());
      programs.emplace(fn.name, std::move(*program));
    }
  }
  runtime::GeneratedIcmp6Responder generated6;
  for (const auto& fn : run6.functions) generated6.add_function(fn);
  FlipV6Responder flipped6(&generated6);
  sim::Icmp6Responder& responder6 =
      options.fault == "flip_v6_byte" ? static_cast<sim::Icmp6Responder&>(flipped6)
                                      : generated6;
  DelegatingResponder delegating(&generated, options.trace,
                                 options.fault == "flip_reply_byte");

  setup.phase("build_topology");
  sim::Topology topo = sim::make_fat_tree(kHosts);
  for (sim::Host* h : topo.hosts) h->set_responder(&delegating);
  for (sim::Router* r : topo.routers) r->set_responder(&delegating);

  setup.phase("make_traffic");
  const std::size_t blocks = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.seconds * kBlocksPerSecond + 0.5));
  const Traffic traffic = make_traffic(topo, options.seed, blocks * kRoundsPerBlock);
  const double setup_s = setup.finish();

  // -- timed region ------------------------------------------------------
  std::vector<Outcome> outcomes(traffic.ops.size());
  TimedRegion region;
  region.ops_per_group =
      static_cast<double>(traffic.packets_per_round * kRoundsPerBlock);
  const std::size_t events0 = topo.net.events_processed();
  const std::int64_t region_start = now_ns();
  const std::size_t ops_per_block = traffic.ops_per_round * kRoundsPerBlock;
  const std::size_t ops_per_piece = traffic.ops_per_round * kRoundsPerPiece;
  for (std::size_t b = 0; b < blocks; ++b) {
    RepTime block;
    for (std::size_t p = b * ops_per_block; p < (b + 1) * ops_per_block;
         p += ops_per_piece) {
      const RepTime t = calib.timed([&] {
        for (std::size_t i = p; i < p + ops_per_piece; ++i) {
          outcomes[i] = run_op(topo, responder6, traffic.ops[i]);
          topo.net.clear_transient();
        }
      });
      block.raw_ns += t.raw_ns;
      block.comp_ns += t.comp_ns;
    }
    region.groups.push_back(block);
  }
  region.wall_ns = now_ns() - region_start;
  const std::size_t events = topo.net.events_processed() - events0;

  // -- checks (untimed, and outside the trace) ---------------------------
  Tracer::instance().enable(false);
  if (options.fault == "drop_hop") {
    for (std::size_t i = 0; i < traffic.ops.size(); ++i) {
      if (traffic.ops[i].kind == Kind::kTraceroute) {
        --outcomes[i].hops;
        break;
      }
    }
  }
  if (options.fault == "corrupt_trigger_reply") {
    for (Trigger& t : delegating.triggers) {
      if (t.reply && t.reply->size() > 24) {
        (*t.reply)[24] ^= 0x01;
        break;
      }
    }
  }
  sim::Topology twin = sim::make_fat_tree(kHosts);  // reference responders
  sim::ReferenceIcmp6Responder reference6;
  std::size_t packets = 0;
  for (std::size_t i = 0; i < traffic.ops.size(); ++i) {
    const Op& op = traffic.ops[i];
    const Outcome& got = outcomes[i];
    packets += got.injected;
    if (!got.accepted) {
      result.failed += got.injected;
      result.fail(op.kind == Kind::kTraceroute ? "I3" : "I2",
                  "op " + std::to_string(i) + " (kind " +
                      std::to_string(static_cast<int>(op.kind)) +
                      ") was not answered as the client model expects");
    }
    if (op.kind == Kind::kTraceroute &&
        got.hops != routers_on_path(topo, topo.hosts[op.src]->address(), op.dst) + 1) {
      result.fail("I3", "traceroute " + std::to_string(i) + " took " +
                            std::to_string(got.hops) + " hops");
    }
    if (is_v6(op.kind)) {
      const auto packet = v6_packet(op);
      if (reply_hash(fire_v6(reference6, op, packet)) != got.hash) {
        result.fail("I4", "ICMPv6 op " + std::to_string(i) +
                              ": reply differs from the reference");
      }
      continue;
    }
    const Outcome ref = run_op(twin, reference6, op);
    if (ref.hash != got.hash) {
      // Not byte-equal: replay both sides and compare decoded packets.
      const auto ref_decoded = decoded_capture(twin.net);
      twin.net.clear_transient();
      const Outcome again = run_op(topo, responder6, op);
      const auto gen_decoded = decoded_capture(topo.net);
      topo.net.clear_transient();
      if (again.hash != got.hash || gen_decoded != ref_decoded) {
        result.fail("I1", "op " + std::to_string(i) + " (kind " +
                              std::to_string(static_cast<int>(op.kind)) +
                              "): capture differs from the reference twin");
      }
    }
    twin.net.clear_transient();
  }
  result.attempted = packets;
  if (packets != traffic.packets_per_round * blocks * kRoundsPerBlock) {
    result.fail("I3", "injected " + std::to_string(packets) + " packets, planned " +
                          std::to_string(traffic.packets_per_round * blocks *
                                         kRoundsPerBlock));
  }

  report_end_to_end(result, options, region, setup, setup_s, calib);
  result.per_layer["codegen.program_bytes"] = {program_bytes, "bytes"};
  result.per_layer["sim.events_per_op"] = {
      static_cast<double>(events) / static_cast<double>(packets), "count"};
  result.per_layer["runtime.allocs_per_reply"] = {
      delegating.calls == 0 ? 0.0
                            : static_cast<double>(delegating.allocations) /
                                  static_cast<double>(delegating.calls),
      "count"};
  if (options.trace) {
    Tracer::instance().enable(true);
    const std::size_t mismatches = replay_triggers(delegating.triggers, programs);
    if (mismatches != 0) {
      result.fail("I5", std::to_string(mismatches) +
                            " replayed replies differ from the responder's");
    }
    const Tracer& tr = Tracer::instance();
    const auto avg = [&](const char* span) {
      const auto& a = tr.aggregate(span);
      return a.count == 0 ? 0.0 : a.total_ns / static_cast<double>(a.count);
    };
    result.per_layer["runtime.respond_ns"] = {avg("runtime.respond"), "ns"};
    result.per_layer["runtime.icmp6_respond_ns"] = {avg("runtime.icmp6_respond"), "ns"};
    result.per_layer["runtime.env_build_ns"] = {avg("runtime.env_build"), "ns"};
    result.per_layer["runtime.vm_exec_ns"] = {avg("runtime.vm_exec"), "ns"};
    result.per_layer["runtime.finish_reply_ns"] = {avg("runtime.finish_reply"), "ns"};
    result.per_layer["sim.dispatch_ns_per_event"] = {
        events == 0 ? 0.0
                    : tr.aggregate("sim.network").self_ns / static_cast<double>(events),
        "ns"};
    if (!options.trace_out.empty()) tr.write_chrome_json(options.trace_out);
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "traffic: %zu rounds x %zu ops (%zu packets), %zu events",
                blocks * kRoundsPerBlock, traffic.ops_per_round,
                traffic.packets_per_round, events);
  result.note(line);
  return result;
}

}  // namespace perfbench
