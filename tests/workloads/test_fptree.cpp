#include "workloads/fptree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace bvl::wl {
namespace {

std::uint64_t support_of(const std::vector<Pattern>& ps, std::vector<Item> items) {
  std::sort(items.begin(), items.end());
  for (const auto& p : ps)
    if (p.items == items) return p.support;
  return 0;
}

void add(TxBatch& b, const Transaction& t, std::uint64_t count = 1) {
  b.add(t.data(), t.size(), count);
}

TxBatch batch_of(std::initializer_list<Transaction> ts) {
  TxBatch b;
  for (const auto& t : ts) add(b, t);
  return b;
}

/// The incremental FP-tree the batch build replaced, kept as the
/// differential reference: transactions inserted one at a time through
/// per-node child maps, an ordered std::map header and LIFO chains.
/// Charges one visit per inserted item and, while mining, one per
/// upward step plus one per item of every conditional path.
class ReferenceFpTree {
 public:
  explicit ReferenceFpTree(std::uint64_t min_support) : min_support_(min_support) {
    nodes_.push_back(Node{});
  }

  std::uint64_t insert(const Transaction& t, std::uint64_t count = 1) {
    std::uint32_t cur = 0;
    for (Item item : t) {
      auto [it, fresh] = nodes_[cur].children.try_emplace(item, 0u);
      if (fresh) {
        it->second = static_cast<std::uint32_t>(nodes_.size());
        HeaderEntry& h = header_[item];
        nodes_.push_back(Node{0, item, cur, h.head, {}});
        h.head = it->second;
      }
      cur = it->second;
      nodes_[cur].count += count;
      header_[item].support += count;
    }
    return t.size();
  }

  std::vector<Pattern> mine(std::uint64_t* visits, std::size_t max_patterns) const {
    std::vector<Pattern> out;
    std::vector<Item> suffix;
    mine_rec(suffix, out, visits, max_patterns);
    return out;
  }

  std::size_t node_count() const { return nodes_.size(); }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  struct Node {
    std::uint64_t count = 0;
    Item item = 0;
    std::uint32_t parent = kNil;
    std::uint32_t next_same_item = kNil;
    std::map<Item, std::uint32_t> children;
  };
  struct HeaderEntry {
    std::uint32_t head = kNil;
    std::uint64_t support = 0;
  };

  void mine_rec(std::vector<Item>& suffix, std::vector<Pattern>& out, std::uint64_t* visits,
                std::size_t max_patterns) const {
    for (auto it = header_.rbegin(); it != header_.rend(); ++it) {
      if (it->second.support < min_support_) continue;
      if (max_patterns != 0 && out.size() >= max_patterns) return;
      Pattern p;
      p.items = suffix;
      p.items.push_back(it->first);
      std::sort(p.items.begin(), p.items.end());
      p.support = it->second.support;
      out.push_back(p);
      ReferenceFpTree cond(min_support_);
      for (std::uint32_t node = it->second.head; node != kNil;
           node = nodes_[node].next_same_item) {
        Transaction path;
        for (std::uint32_t up = nodes_[node].parent; up != 0; up = nodes_[up].parent) {
          path.push_back(nodes_[up].item);
          ++*visits;
        }
        if (path.empty()) continue;
        std::reverse(path.begin(), path.end());
        *visits += cond.insert(path, nodes_[node].count);
      }
      suffix.push_back(it->first);
      cond.mine_rec(suffix, out, visits, max_patterns);
      suffix.pop_back();
    }
  }

  std::uint64_t min_support_;
  std::vector<Node> nodes_;
  std::map<Item, HeaderEntry> header_;
};

TEST(FpTree, MinesTextbookExample) {
  // Classic Han et al. style dataset.
  TxBatch b = batch_of({{1, 2, 5},
                        {2, 4},
                        {2, 3},
                        {1, 2, 4},
                        {1, 3},
                        {2, 3},
                        {1, 3},
                        {1, 2, 3, 5},
                        {1, 2, 3}});
  FpTree tree(3, b);
  auto patterns = tree.mine();

  EXPECT_EQ(support_of(patterns, {1}), 6u);
  EXPECT_EQ(support_of(patterns, {2}), 7u);
  EXPECT_EQ(support_of(patterns, {3}), 6u);
  EXPECT_EQ(support_of(patterns, {1, 2}), 4u);
  EXPECT_EQ(support_of(patterns, {1, 3}), 4u);
  EXPECT_EQ(support_of(patterns, {2, 3}), 4u);
  // {4} and {5} have support 2 < 3: absent.
  EXPECT_EQ(support_of(patterns, {4}), 0u);
  EXPECT_EQ(support_of(patterns, {5}), 0u);
}

TEST(FpTree, AllMinedPatternsMeetMinSupport) {
  TxBatch b;
  for (Item a = 0; a < 8; ++a)
    for (Item c = a + 1; c < 8; ++c) add(b, {a, c});
  FpTree tree(2, b);
  for (const auto& p : tree.mine()) EXPECT_GE(p.support, 2u);
}

TEST(FpTree, SubsetSupportMonotonicity) {
  // Apriori property: support({a,b}) <= support({a}).
  TxBatch b = batch_of({{1, 2, 3}, {1, 2}, {1}});
  FpTree tree(1, b);
  auto ps = tree.mine();
  EXPECT_LE(support_of(ps, {1, 2}), support_of(ps, {1}));
  EXPECT_LE(support_of(ps, {1, 2, 3}), support_of(ps, {1, 2}));
  EXPECT_EQ(support_of(ps, {1}), 3u);
  EXPECT_EQ(support_of(ps, {1, 2}), 2u);
  EXPECT_EQ(support_of(ps, {1, 2, 3}), 1u);
}

TEST(FpTree, SharedPrefixesCompress) {
  TxBatch b = batch_of({{1, 2, 3}, {1, 2, 4}});
  FpTree tree(1, b);
  // root + 1,2 shared + 3,4 leaves = 5 nodes.
  EXPECT_EQ(tree.node_count(), 5u);
}

TEST(FpTree, InsertCountsVisits) {
  TxBatch b = batch_of({{1, 2, 3}});
  EXPECT_EQ(FpTree(1, b).build_visits(), 3u);
  // One visit per item of every span, whatever its count.
  TxBatch c;
  add(c, {1, 2, 3}, 5);
  add(c, {1, 2});
  EXPECT_EQ(FpTree(1, c).build_visits(), 5u);
}

TEST(FpTree, MaxPatternsCapsOutput) {
  TxBatch b;
  for (Item i = 0; i < 10; ++i) add(b, {i});
  FpTree tree(1, b);
  auto ps = tree.mine(nullptr, 3);
  EXPECT_EQ(ps.size(), 3u);
}

TEST(FpTree, RejectsUnsortedTransaction) {
  TxBatch unsorted = batch_of({{1, 2}, {3, 1}});
  EXPECT_THROW(FpTree(1, unsorted), Error);
  TxBatch duplicate = batch_of({{1, 2}, {1, 4, 4}});
  EXPECT_THROW(FpTree(1, duplicate), Error);
  TxBatch empty;
  EXPECT_THROW(FpTree(0, empty), Error);
}

TEST(FpTree, BuildsFromAnySpanOrderAndDropsEmptyBaskets) {
  TxBatch b;
  add(b, {});
  add(b, {4});
  add(b, {1, 2, 9});
  b.add_parsed("  junk ");
  add(b, {1, 2});
  EXPECT_EQ(b.spans().size(), 3u);
  FpTree tree(1, b);
  EXPECT_EQ(tree.node_count(), 5u);  // root, 1, 2, 9, 4
  EXPECT_EQ(tree.build_visits(), 6u);
  auto ps = tree.mine();
  EXPECT_EQ(support_of(ps, {1, 2}), 2u);
  EXPECT_EQ(support_of(ps, {4}), 1u);
}

/// One randomized batch, fed identically to the reference tree (in
/// input order) and to the batch build (which sorts it).
struct RandomBatch {
  std::vector<std::pair<Transaction, std::uint64_t>> txs;
  std::vector<std::string> lines;  ///< parsed through add_parsed / parse_transaction
};

RandomBatch random_batch(std::uint64_t seed) {
  Pcg32 rng(seed);
  // A skewed small universe, plus ids near 2^32 on odd seeds.
  const bool huge_ids = seed % 2 == 1;
  auto draw_item = [&]() -> Item {
    if (huge_ids && rng.uniform(0, 19) == 0)
      return 0xffffffffu - static_cast<Item>(rng.uniform(0, 3));
    Item a = static_cast<Item>(rng.uniform(0, 11));
    Item c = static_cast<Item>(rng.uniform(0, 11));
    return std::min(a, c);
  };
  RandomBatch rb;
  const auto n = rng.uniform(0, 160);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!rb.txs.empty() && rng.uniform(0, 5) == 0) {  // duplicate an earlier basket
      rb.txs.push_back(rb.txs[rng.uniform(0, rb.txs.size() - 1)]);
      continue;
    }
    Transaction t;
    const auto len = rng.uniform(0, 3) == 0 ? rng.uniform(0, 1) : rng.uniform(2, 7);
    for (std::uint64_t j = 0; j < len; ++j) t.push_back(draw_item());
    if (rng.uniform(0, 3) == 0) {  // unsorted, duplicated tokens and junk
      std::string line;
      for (Item item : t) line += std::to_string(item) + (rng.uniform(0, 4) == 0 ? " x " : " ");
      rb.lines.push_back(line);
      continue;
    }
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    rb.txs.emplace_back(t, rng.uniform(0, 3) == 0 ? rng.uniform(2, 4) : 1);
  }
  return rb;
}

TEST(FpTree, BatchBuildMatchesIncrementalReference) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const RandomBatch rb = random_batch(seed);
    for (std::uint64_t min_support : {1u, 2u, 4u}) {
      for (std::size_t max_patterns : {0u, 3u, 256u}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " min_support " +
                     std::to_string(min_support) + " max_patterns " +
                     std::to_string(max_patterns));
        ReferenceFpTree ref(min_support);
        std::uint64_t ref_visits = 0;
        TxBatch batch;
        for (const auto& [t, count] : rb.txs) {
          ref_visits += ref.insert(t, count);
          add(batch, t, count);
        }
        for (const auto& line : rb.lines) {
          ref_visits += ref.insert(parse_transaction(line));
          batch.add_parsed(line);
        }
        auto ref_patterns = ref.mine(&ref_visits, max_patterns);

        FpTree tree(min_support, batch);
        std::uint64_t visits = tree.build_visits();
        auto patterns = tree.mine(&visits, max_patterns);

        EXPECT_EQ(tree.node_count(), ref.node_count());
        EXPECT_EQ(visits, ref_visits);
        ASSERT_EQ(patterns.size(), ref_patterns.size());
        for (std::size_t i = 0; i < patterns.size(); ++i) {
          EXPECT_EQ(patterns[i].items, ref_patterns[i].items) << "pattern " << i;
          EXPECT_EQ(patterns[i].support, ref_patterns[i].support) << "pattern " << i;
        }
      }
    }
  }
}

TEST(ParseTransaction, SortsDedupsSkipsJunk) {
  Transaction t = parse_transaction("7 3 junk 3 11");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], 3u);
  EXPECT_EQ(t[1], 7u);
  EXPECT_EQ(t[2], 11u);
  EXPECT_TRUE(parse_transaction("").empty());
  // The reducer's path parses the same way, straight into a batch.
  TxBatch b;
  b.add_parsed("");
  b.add_parsed("7 3 junk 3 11");
  ASSERT_EQ(b.spans().size(), 1u);
  EXPECT_EQ(b.items(), (std::vector<Item>{3, 7, 11}));
}

}  // namespace
}  // namespace bvl::wl
