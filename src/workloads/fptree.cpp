#include "workloads/fptree.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <utility>

#include "util/error.hpp"

namespace bvl::wl {

namespace {

/// Appends the numeric tokens of `line` to `out` and sorts and dedups
/// the appended range in place; non-numeric tokens are skipped.
void parse_items(std::string_view line, std::vector<Item>& out) {
  const std::size_t start = out.size();
  const char* p = line.data();
  const char* end = p + line.size();
  while (p < end) {
    while (p < end && *p == ' ') ++p;
    Item v = 0;
    auto [next, ec] = std::from_chars(p, end, v);
    if (ec == std::errc() && next != p) {
      out.push_back(v);
      p = next;
    } else {
      while (p < end && *p != ' ') ++p;  // skip junk token
    }
  }
  auto first = out.begin() + static_cast<std::ptrdiff_t>(start);
  std::sort(first, out.end());
  out.erase(std::unique(first, out.end()), out.end());
}

/// Stable LSD counting sort of `v` by `key(x)`, an unsigned key of at
/// most `key_bits` bits, 11 bits per pass. The digit histograms come
/// from one pass over `v`, and a pass whose digit every key shares is
/// skipped, so keys below 2^11 cost a single scatter.
template <class T, class KeyFn>
void radix_sort(std::vector<T>& v, int key_bits, KeyFn key) {
  constexpr int kDigit = 11;
  constexpr std::uint64_t kMask = (std::uint64_t{1} << kDigit) - 1;
  const int passes = (key_bits + kDigit - 1) / kDigit;
  std::vector<std::uint32_t> count(static_cast<std::size_t>(passes) << kDigit, 0);
  for (const T& x : v) {
    const std::uint64_t k = key(x);
    for (int p = 0; p < passes; ++p)
      ++count[(static_cast<std::size_t>(p) << kDigit) + ((k >> (p * kDigit)) & kMask)];
  }
  std::vector<T> tmp(v.size());
  for (int p = 0; p < passes; ++p) {
    auto c = count.begin() + (static_cast<std::ptrdiff_t>(p) << kDigit);
    auto c_end = c + (std::ptrdiff_t{1} << kDigit);
    if (std::find(c, c_end, v.size()) != c_end) continue;
    std::uint32_t sum = 0;
    for (auto it = c; it != c_end; ++it) sum += std::exchange(*it, sum);
    for (const T& x : v) {
      const auto digit = static_cast<std::ptrdiff_t>((key(x) >> (p * kDigit)) & kMask);
      tmp[c[digit]++] = x;
    }
    v.swap(tmp);
  }
}

}  // namespace

void TxBatch::close_span(std::size_t offset, std::uint64_t count) {
  const std::size_t len = items_.size() - offset;
  if (len == 0) return;
  require(items_.size() <= 0xffffffffu, "TxBatch: item buffer exceeds 2^32 items");
  spans_.push_back(
      Span{static_cast<std::uint32_t>(offset), static_cast<std::uint32_t>(len), count});
}

void TxBatch::add(const Item* items, std::size_t len, std::uint64_t count) {
  const std::size_t offset = items_.size();
  items_.insert(items_.end(), items, items + len);
  close_span(offset, count);
}

void TxBatch::add_parsed(std::string_view line) {
  const std::size_t offset = items_.size();
  parse_items(line, items_);
  close_span(offset, 1);
}

FpTree::FpTree(std::uint64_t min_support) : min_support_(min_support) {
  require(min_support_ >= 1, "FpTree: min_support must be >= 1");
  pool_.push_back(Node{});  // root: parent kNil, never counted or mined
}

FpTree::FpTree(std::uint64_t min_support, TxBatch& batch) : FpTree(min_support) {
  // Build order: lexicographic, except that a span sorts before its
  // own proper prefixes — the order mine_rec reads conditional paths
  // off a header chain in. Spans are radix-sorted on a key of their
  // leading items packed at just enough bits for the batch's largest
  // item, all-ones marking "past the end"; only spans whose keys tie
  // are compared item by item.
  const Item* items = batch.items_.data();
  Item max_item = 0;
  for (Item v : batch.items_) max_item = std::max(max_item, v);
  const int bits = std::bit_width(static_cast<std::uint64_t>(max_item) + 1);
  const std::uint32_t per_key = static_cast<std::uint32_t>(64 / bits);
  const std::uint64_t end_mark = (std::uint64_t{1} << bits) - 1;
  struct Keyed {
    std::uint64_t key;
    TxBatch::Span span;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(batch.spans_.size());
  for (const TxBatch::Span& s : batch.spans_) {
    std::uint64_t key = 0;
    for (std::uint32_t k = 0; k < per_key; ++k)
      key = (key << bits) | (k < s.len ? items[s.offset + k] : end_mark);
    keyed.push_back(Keyed{key, s});
  }
  radix_sort(keyed, static_cast<int>(per_key) * bits, [](const Keyed& k) { return k.key; });
  // Spans whose keys tie agree on their leading per_key items (or end
  // together); order each such run by the rest.
  for (std::size_t i = 0, j = 0; i < keyed.size(); i = j) {
    for (j = i + 1; j < keyed.size() && keyed[j].key == keyed[i].key;) ++j;
    if (j - i < 2) continue;
    std::sort(keyed.begin() + static_cast<std::ptrdiff_t>(i),
              keyed.begin() + static_cast<std::ptrdiff_t>(j),
              [items, per_key](const Keyed& a, const Keyed& b) {
                const Item* pa = items + a.span.offset;
                const Item* pb = items + b.span.offset;
                const std::uint32_t n = std::min(a.span.len, b.span.len);
                const std::uint32_t from = std::min(per_key, n);
                auto [ia, ib] = std::mismatch(pa + from, pa + n, pb + from);
                if (ia != pa + n) return *ia < *ib;
                return a.span.len > b.span.len;
              });
  }
  for (std::size_t i = 0; i < keyed.size(); ++i) batch.spans_[i] = keyed[i].span;
  keyed = {};
  build(batch);
}

void FpTree::build(const TxBatch& batch) {
  // Trie pass: `path` holds the node at each depth of the previous
  // span; the current span reuses it up to their common prefix and
  // appends its remaining items as new nodes. Only the span's last
  // node is credited here; the counts are summed upward below.
  const Item* items = batch.items_.data();
  const Item* prev = nullptr;
  std::vector<std::uint32_t> path;
  pool_.reserve(batch.items_.size() + 1);  // at most one node per item
  const std::vector<TxBatch::Span>& spans = batch.spans_;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TxBatch::Span& s = spans[i];
    const Item* t = items + s.offset;
    if (i + 1 < spans.size()) __builtin_prefetch(items + spans[i + 1].offset);
    std::size_t k = 0;
    const std::size_t shared = std::min<std::size_t>(path.size(), s.len);
    while (k < shared && t[k] == prev[k]) ++k;
    path.resize(k);
    for (std::size_t d = k; d < s.len; ++d) {
      require(d == 0 || t[d - 1] < t[d], "FpTree: transaction items must be strictly ascending");
      auto idx = static_cast<std::uint32_t>(pool_.size());
      require(idx != kNil, "FpTree: node limit exceeded");
      pool_.push_back(Node{0, t[d], d == 0 ? kRoot : path.back(), kNil});
      path.push_back(idx);
    }
    if (!path.empty()) pool_[path.back()].count += s.count;
    build_visits_ += s.len;
    prev = t;
  }
  // Children follow their parent in the arena, so one reverse sweep
  // turns the end-of-span credits into subtree totals.
  for (std::size_t i = pool_.size(); i-- > 1;) pool_[pool_[i].parent].count += pool_[i].count;

  // Header: the nodes ordered by item, ties in creation order; each
  // run of one item is its chain.
  std::vector<std::uint32_t> order(pool_.size() - 1);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<std::uint32_t>(i + 1);
  radix_sort(order, 32, [this](std::uint32_t n) { return pool_[n].item; });
  for (std::size_t i = 0; i < order.size();) {
    HeaderEntry h{pool_[order[i]].item, order[i], 0};
    std::size_t j = i;
    for (; j < order.size() && pool_[order[j]].item == h.item; ++j) {
      h.support += pool_[order[j]].count;
      if (j > i) pool_[order[j - 1]].next_same_item = order[j];
    }
    header_.push_back(h);
    i = j;
  }
}

std::vector<Pattern> FpTree::mine(std::uint64_t* visits, std::size_t max_patterns) const {
  std::vector<Pattern> out;
  std::vector<Item> suffix;
  mine_rec(suffix, out, visits, max_patterns);
  return out;
}

void FpTree::mine_rec(std::vector<Item>& suffix, std::vector<Pattern>& out, std::uint64_t* visits,
                      std::size_t max_patterns) const {
  // Process items least-frequent-first (highest id first: ascending id
  // encodes descending global support in our transaction encoding).
  for (std::size_t h = header_.size(); h-- > 0;) {
    const HeaderEntry& e = header_[h];
    if (e.support < min_support_) continue;
    if (max_patterns != 0 && out.size() >= max_patterns) return;

    Pattern p;
    p.items = suffix;
    p.items.push_back(e.item);
    std::sort(p.items.begin(), p.items.end());
    p.support = e.support;
    out.push_back(p);

    // Conditional pattern base: the prefix path of every node carrying
    // this item, read off the chain already in build order.
    TxBatch base;
    for (std::uint32_t node = e.head; node != kNil; node = pool_[node].next_same_item) {
      const std::size_t start = base.items_.size();
      for (std::uint32_t up = pool_[node].parent; up != kRoot; up = pool_[up].parent)
        base.items_.push_back(pool_[up].item);
      if (visits) *visits += base.items_.size() - start;
      std::reverse(base.items_.begin() + static_cast<std::ptrdiff_t>(start), base.items_.end());
      base.close_span(start, pool_[node].count);
    }
    FpTree cond(min_support_);
    cond.build(base);
    if (visits) *visits += cond.build_visits_;
    suffix.push_back(e.item);
    cond.mine_rec(suffix, out, visits, max_patterns);
    suffix.pop_back();
  }
}

Transaction parse_transaction(std::string_view line) {
  Transaction t;
  parse_items(line, t);
  return t;
}

}  // namespace bvl::wl
