// FP-tree and FP-Growth frequent-itemset mining (Han et al. 2000),
// the kernel of the paper's Mahout FP-Growth workload. A standalone,
// fully tested implementation: the MapReduce wrapper (fpgrowth.hpp)
// shards transactions Mahout-PFP-style and runs this miner per shard.
//
// Every tree — the reducer's top-level tree and each conditional tree
// FP-Growth builds while mining — is built in one pass from a TxBatch
// sorted lexicographically. In that order the transactions sharing a
// prefix sit next to each other, so each transaction reuses the path
// of the one before it up to their common prefix and appends the rest
// as fresh nodes: no child lookup, no hash table. Nodes live in a
// bump-allocated arena (one std::vector, 32-bit indices, children
// always after their parent); the header is a flat table with one
// entry per distinct item, whatever the item ids are.
//
// The build needs only that spans sharing a prefix are adjacent. The
// public constructor sorts lexicographically, a span before its own
// proper prefixes. Conditional bases need no sort: the build creates
// nodes in preorder, children in ascending item order, and each header
// chain links its nodes in creation order, so the prefix paths read
// off a chain come out in that same order.
//
// The logical work metric — node visits charged to the perf model —
// depends only on the tree's node set and counts, never on insertion
// order or node numbering: building charges one visit per item of
// every transaction span (whatever its count), and mining charges one
// per upward step from every chain node plus one per item of every
// conditional path it builds from. The node set is the set of distinct
// prefixes and each count the total multiplicity through it, both
// fixed by the transactions alone, so the charges are the ones an
// incremental insert-one-at-a-time tree makes, and traces and goldens
// are bit-identical to it.
#pragma once

#include <cstdint>
#include <cstddef>
#include <string_view>
#include <vector>

namespace bvl::wl {

using Item = std::uint32_t;
using Transaction = std::vector<Item>;  ///< items sorted by ascending id = descending support

struct Pattern {
  std::vector<Item> items;
  std::uint64_t support = 0;
};

/// Transactions in one flat item buffer: span i is
/// items[spans[i].offset, + spans[i].len) and occurs `count` times.
/// Each span must be strictly ascending (checked when a tree is built
/// from it); empty transactions carry no items and are dropped.
class TxBatch {
 public:
  struct Span {
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
    std::uint64_t count = 1;
  };

  void add(const Item* items, std::size_t len, std::uint64_t count = 1);
  /// Parses a line like parse_transaction, straight into the buffer.
  void add_parsed(std::string_view line);
  void reserve(std::size_t spans) { spans_.reserve(spans); }

  const std::vector<Item>& items() const { return items_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  friend class FpTree;
  void close_span(std::size_t offset, std::uint64_t count);

  std::vector<Item> items_;
  std::vector<Span> spans_;
};

class FpTree {
 public:
  /// Builds the tree of `batch`, sorting its spans in place.
  /// `min_support`: absolute occurrence threshold for mining.
  FpTree(std::uint64_t min_support, TxBatch& batch);

  /// Node visits charged for the build: one per item of every span.
  std::uint64_t build_visits() const { return build_visits_; }

  /// Mines all frequent patterns (recursive conditional-tree
  /// FP-Growth). `visits` accumulates node visits. `max_patterns`
  /// bounds output (0 = unbounded).
  std::vector<Pattern> mine(std::uint64_t* visits = nullptr,
                            std::size_t max_patterns = 0) const;

  std::size_t node_count() const { return pool_.size(); }
  std::uint64_t min_support() const { return min_support_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kRoot = 0;

  /// 24 bytes, arena-indexed. No child links: the mining walks go
  /// upward (parent) and sideways (header chains), never down.
  struct Node {
    std::uint64_t count = 0;
    Item item = 0;
    std::uint32_t parent = kNil;
    std::uint32_t next_same_item = kNil;  ///< header chain, creation order
  };

  /// One per distinct item, ascending by item: chain head and the
  /// item's total support.
  struct HeaderEntry {
    Item item = 0;
    std::uint32_t head = kNil;
    std::uint64_t support = 0;
  };

  explicit FpTree(std::uint64_t min_support);
  /// The one construction path; in `batch`, spans sharing a prefix
  /// must already be adjacent.
  void build(const TxBatch& batch);
  void mine_rec(std::vector<Item>& suffix, std::vector<Pattern>& out, std::uint64_t* visits,
                std::size_t max_patterns) const;

  std::uint64_t min_support_;
  std::uint64_t build_visits_ = 0;
  std::vector<Node> pool_;            ///< [0] is the root; indices never move
  std::vector<HeaderEntry> header_;   ///< mining iterates it descending
};

/// Parses "3 17 42" into a Transaction; non-numeric tokens skipped.
Transaction parse_transaction(std::string_view line);

}  // namespace bvl::wl
