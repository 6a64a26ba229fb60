// Hash-consing (interning) infrastructure for CCG categories and terms.
//
// Both `Category` and `Term` are immutable trees built exclusively
// through factory functions. The factories route every construction
// through a process-wide intern table: structurally identical nodes get
// the SAME canonical `shared_ptr`, so
//
//   * structural equality is pointer equality (no recursive compares on
//     the parse hot path),
//   * every node carries a precomputed structural hash and a dense
//     integer id, which is what the chart's edge-dedup set and the
//     per-cell combinability indexes key on (src/ccg/parser.cpp), and
//   * rebuilding a subtree that already exists allocates nothing —
//     β-reduction steps that do not touch a subtree return the original
//     interned node.
//
// Concurrency: the tables are mutex-striped (shard = high hash bits), so
// parallel parses interning different structures almost never contend.
// Entries are intentionally immortal — the table owns one shared_ptr per
// distinct structure. The term table is bounded by the text a process
// parses, not by how often it parses it: the lexicon is built, and its
// binders interned, once per process (corpus::shared_lexicon), and
// parse-time variable ids restart at the same base for every parse (see
// VarGen in term.hpp), so re-parsing text any Sage has parsed before —
// a fresh Sage included — re-interns existing nodes only.
// `category_interner_size()` / `term_interner_size()` expose the live
// table sizes for `sage_debug --parse-stats` and the property tests.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace sage::ccg {

/// FNV-1a mixing, the same stable scheme the logical-form structural
/// hash and the parse cache use. Seed with kHashSeed, then fold values.
inline constexpr std::uint64_t kHashSeed = 14695981039346656037ull;

inline std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kPrime;
  }
  return h;
}

inline std::uint64_t hash_bytes(std::uint64_t h, std::string_view s) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= kPrime;
  }
  return h;
}

/// Thread-safe hash-consing table. `Key` is a cheap probe view of a
/// node's structure (child pointers + scalars + string_views) carrying
/// its precomputed `hash`; `stored_key_of(node)` rebuilds that view
/// from a canonical node so probes can be compared against residents.
///
/// Each shard is an open-addressing flat table (power-of-two capacity,
/// linear probing). Entries are never deleted — the table owns its
/// nodes for the process lifetime — which is exactly the case where
/// tombstone-free linear probing is both simplest and fastest: a find
/// is one or two contiguous cache lines, with the stored 64-bit hash
/// screened before any full key comparison.
template <typename Node, typename Key, typename KeyHash>
class InternTable {
 public:
  using Ptr = std::shared_ptr<const Node>;

  /// Returns the canonical node for `probe`, creating it with
  /// `make(id)` on first sight. `stored_key_of(node)` must rebuild the
  /// probe key with views into the node's own storage.
  template <typename Factory, typename StoredKeyOf>
  Ptr intern(const Key& probe, Factory&& make, StoredKeyOf&& stored_key_of) {
    Shard& shard = shards_[(probe.hash >> 58) & (kShards - 1)];
    std::lock_guard lock(shard.mutex);
    std::size_t slot = shard.find_slot(probe, stored_key_of);
    if (shard.entries[slot].node != nullptr) return shard.entries[slot].node;
    Ptr node = make(next_id_.fetch_add(1, std::memory_order_relaxed));
    shard.entries[slot] = Entry{probe.hash, node};
    if (++shard.used * 4 > shard.entries.size() * 3) shard.grow();
    return node;
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard lock(shard.mutex);
      total += shard.used;
    }
    return total;
  }

 private:
  static constexpr std::size_t kShards = 16;
  struct Entry {
    std::uint64_t hash = 0;
    Ptr node;  // nullptr marks an empty slot
  };
  struct Shard {
    mutable std::mutex mutex;
    std::vector<Entry> entries = std::vector<Entry>(64);
    std::size_t used = 0;

    /// Slot of the resident matching `probe`, or the empty slot where
    /// it belongs. Load is capped at 3/4, so an empty slot always ends
    /// the probe sequence.
    template <typename StoredKeyOf>
    std::size_t find_slot(const Key& probe,
                          StoredKeyOf&& stored_key_of) const {
      const std::size_t mask = entries.size() - 1;
      std::size_t slot = static_cast<std::size_t>(probe.hash) & mask;
      while (entries[slot].node != nullptr) {
        if (entries[slot].hash == probe.hash &&
            stored_key_of(*entries[slot].node) == probe) {
          return slot;
        }
        slot = (slot + 1) & mask;
      }
      return slot;
    }

    void grow() {
      std::vector<Entry> old = std::move(entries);
      entries.assign(old.size() * 2, Entry{});
      const std::size_t mask = entries.size() - 1;
      for (Entry& e : old) {
        if (e.node == nullptr) continue;
        std::size_t slot = static_cast<std::size_t>(e.hash) & mask;
        while (entries[slot].node != nullptr) slot = (slot + 1) & mask;
        entries[slot] = std::move(e);
      }
    }
  };
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint32_t> next_id_{1};
};

/// Live intern-table sizes (distinct structures seen process-wide).
std::size_t category_interner_size();  // defined in category.cpp
std::size_t term_interner_size();      // defined in term.cpp

}  // namespace sage::ccg
