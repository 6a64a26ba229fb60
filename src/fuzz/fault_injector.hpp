// Seeded fault injection in front of sim::Network.
//
// FaultyNetwork wraps a Network and applies loss, duplication,
// reordering, delay, and byte corruption to packets before they reach the
// wire. Every decision is drawn from a util::SplitMix64 the caller
// supplies, so two wrappers constructed with the same plan and the
// same-seeded rng make byte-identical decisions — that is how the
// differential harness subjects the generated-code network and the
// reference network to the exact same weather.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/network.hpp"
#include "util/rng.hpp"

namespace sage::fuzz {

/// Per-knob probabilities in percent (0 = knob off). Parsed from the CLI
/// spec "loss=5,dup=10,reorder=20,delay=10,corrupt=5".
struct FaultPlan {
  unsigned loss = 0;     // drop the packet outright
  unsigned dup = 0;      // send it twice
  unsigned reorder = 0;  // hold it until after the next packet
  unsigned delay = 0;    // hold it until flush()
  unsigned corrupt = 0;  // xor one byte

  bool any() const { return loss + dup + reorder + delay + corrupt > 0; }
  std::string to_string() const;

  /// Parse a "knob=pct,knob=pct" spec; nullopt (and *error) on unknown
  /// knobs, missing '=', or pct > 100.
  static std::optional<FaultPlan> parse(const std::string& spec,
                                        std::string* error = nullptr);
};

class FaultyNetwork {
 public:
  FaultyNetwork(sim::Network& net, const FaultPlan& plan,
                util::SplitMix64 rng)
      : net_(net), plan_(plan), rng_(rng) {}

  /// Send from `host`, subject to the plan. `via_router` forces the first
  /// hop through the router (the Appendix A redirect setup). The caller
  /// keeps ownership of `packet`; corruption happens in a reused scratch
  /// slab, never by materializing a fresh vector per send.
  void send(const std::string& host, std::span<const std::uint8_t> packet,
            bool via_router = false);

  /// Release every held (reordered/delayed) packet, oldest first.
  /// Delayed packets are released as real future-time events: each is
  /// scheduled kDelayNs into the simulated future, spaced kDelaySpacingNs
  /// apart so each release's cascade quiesces before the next begins —
  /// the sequential release order the pinned fuzz verdict logs record.
  void flush();

  /// Simulated-time penalty of a delay fault.
  static constexpr std::uint64_t kDelayNs = 1000000;  // 1ms
  /// Spacing between consecutive delayed releases.
  static constexpr std::uint64_t kDelaySpacingNs = 1000;

 private:
  /// Held packets own their bytes — they must survive until the packet
  /// that overtakes them (reorder) or flush() (delay).
  struct Held {
    std::string host;
    std::vector<std::uint8_t> packet;
    bool via_router = false;
  };

  void put_on_wire(const std::string& host,
                   std::span<const std::uint8_t> packet, bool via_router);

  sim::Network& net_;
  FaultPlan plan_;
  util::SplitMix64 rng_;
  std::optional<Held> swap_hold_;  // reorder: goes out after the next send
  std::vector<Held> delayed_;      // delay: goes out at flush()
  /// Corruption scratch slab: assign() reuses its capacity, so a long
  /// fuzzing campaign corrupts thousands of packets with ~one allocation.
  std::vector<std::uint8_t> scratch_;
};

}  // namespace sage::fuzz
