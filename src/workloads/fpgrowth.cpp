#include "workloads/fpgrowth.hpp"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "util/error.hpp"
#include "workloads/datagen.hpp"
#include "workloads/fptree.hpp"

namespace bvl::wl {

namespace {

/// Mahout-PFP group id: items are hashed into groups; each group's
/// reducer sees the basket prefix ending at its item.
int group_of(Item item, int groups) { return static_cast<int>(item % static_cast<Item>(groups)); }

class PfpMapper final : public mr::Mapper {
 public:
  explicit PfpMapper(int groups) : groups_(groups) {}

  void map(const mr::Record& rec, mr::Emitter& out, mr::WorkCounters& c) override {
    Transaction t = parse_transaction(rec.value);
    c.token_ops += static_cast<double>(t.size());
    if (t.empty()) return;
    // Emit each group's dependent prefix once (dedup groups seen,
    // scanning least-frequent-first as PFP does).
    int emitted_mask_small = 0;  // groups_ <= 31 in practice; fall back below otherwise
    std::vector<bool> emitted;
    bool use_mask = groups_ <= 31;
    if (!use_mask) emitted.assign(static_cast<std::size_t>(groups_), false);
    for (std::size_t i = t.size(); i-- > 0;) {
      int g = group_of(t[i], groups_);
      bool seen = use_mask ? ((emitted_mask_small >> g) & 1) != 0
                           : emitted[static_cast<std::size_t>(g)];
      if (seen) continue;
      if (use_mask) emitted_mask_small |= 1 << g;
      else emitted[static_cast<std::size_t>(g)] = true;
      // Dependent prefix: items up to and including position i.
      std::string prefix;
      for (std::size_t j = 0; j <= i; ++j) {
        if (j) prefix += ' ';
        prefix += std::to_string(t[j]);
      }
      char key[16] = {'g'};
      char* end = std::to_chars(key + 1, key + sizeof(key), g).ptr;
      out.emit(std::string_view(key, static_cast<std::size_t>(end - key)), prefix);
      c.compute_units += static_cast<double>(i + 1);
    }
  }

 private:
  int groups_;
};

class PfpReducer final : public mr::Reducer {
 public:
  explicit PfpReducer(int min_support_per_mille) : per_mille_(min_support_per_mille) {}

  void reduce(std::string_view key, const std::vector<std::string_view>& values, mr::Emitter& out,
              mr::WorkCounters& c) override {
    std::uint64_t min_support = std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(values.size()) * static_cast<std::uint64_t>(per_mille_) /
               1000);
    TxBatch batch;
    batch.reserve(values.size());
    for (const auto& v : values) batch.add_parsed(v);
    FpTree tree(min_support, batch);
    std::uint64_t visits = tree.build_visits();
    // Cap the mined output so pathological shards stay bounded, as
    // Mahout's topKStrings does.
    auto patterns = tree.mine(&visits, /*max_patterns=*/256);
    c.compute_units += static_cast<double>(visits);
    std::sort(patterns.begin(), patterns.end(),
              [](const Pattern& a, const Pattern& b) { return a.support > b.support; });
    std::size_t top = std::min<std::size_t>(patterns.size(), 64);
    for (std::size_t i = 0; i < top; ++i) {
      std::string items;
      for (std::size_t j = 0; j < patterns[i].items.size(); ++j) {
        if (j) items += ' ';
        items += std::to_string(patterns[i].items[j]);
      }
      out.emit(std::string(key) + ":" + items, std::to_string(patterns[i].support));
    }
  }

 private:
  int per_mille_;
};

}  // namespace

FpGrowthJob::FpGrowthJob(int num_groups, int min_support_per_mille)
    : num_groups_(num_groups), min_support_per_mille_(min_support_per_mille) {
  require(num_groups_ >= 1 && num_groups_ <= 64, "FpGrowthJob: groups out of [1,64]");
  require(min_support_per_mille_ >= 1 && min_support_per_mille_ <= 1000,
          "FpGrowthJob: support out of [1,1000] per-mille");
}

std::unique_ptr<mr::SplitSource> FpGrowthJob::open_split(std::uint64_t block_id, Bytes exec_bytes,
                                                         std::uint64_t seed) const {
  return std::make_unique<TransactionSource>(exec_bytes, seed ^ block_id);
}

std::unique_ptr<mr::Mapper> FpGrowthJob::make_mapper() const {
  return std::make_unique<PfpMapper>(num_groups_);
}

std::unique_ptr<mr::Reducer> FpGrowthJob::make_reducer() const {
  return std::make_unique<PfpReducer>(min_support_per_mille_);
}

}  // namespace bvl::wl
