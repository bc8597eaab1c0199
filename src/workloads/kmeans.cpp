#include "workloads/kmeans.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads/datagen.hpp"

namespace bvl::wl {

namespace {

/// Points drawn from k Gaussian-ish blobs so clustering is meaningful.
class PointSource final : public LineSource {
 public:
  PointSource(Bytes target_bytes, std::uint64_t seed, int k, int dims)
      : LineSource(target_bytes, seed), k_(k), dims_(dims) {}

 protected:
  void make_line(Pcg32& rng, std::string& line) override {
    int blob = static_cast<int>(rng.uniform(0, static_cast<std::uint64_t>(k_ - 1)));
    for (int d = 0; d < dims_; ++d) {
      if (d) line += ' ';
      // Blob centers on a lattice; triangular noise around them.
      double center = 10.0 * ((blob + d) % k_);
      double noise = rng.uniform_real(-1.0, 1.0) + rng.uniform_real(-1.0, 1.0);
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.3f", center + noise);
      line += buf;
    }
  }

 private:
  int k_;
  int dims_;
};

std::string serialize_point(const std::vector<double>& p, double weight) {
  std::string out = std::to_string(weight);
  for (double v : p) {
    out += ' ';
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f", v);
    out += buf;
  }
  return out;
}

class KMeansMapper final : public mr::Mapper {
 public:
  KMeansMapper(const std::vector<std::vector<double>>* centroids, int dims)
      : centroids_(centroids), dims_(dims) {}

  void map(const mr::Record& rec, mr::Emitter& out, mr::WorkCounters& c) override {
    std::vector<double> p = parse_point(rec.value, dims_);
    if (p.empty()) return;
    c.token_ops += static_cast<double>(dims_);
    int best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < centroids_->size(); ++i) {
      double d = 0;
      for (int j = 0; j < dims_; ++j) {
        double diff = p[static_cast<std::size_t>(j)] - (*centroids_)[i][static_cast<std::size_t>(j)];
        d += diff * diff;
      }
      c.compute_units += static_cast<double>(dims_);  // FP ops per distance
      if (d < best_d) {
        best_d = d;
        best = static_cast<int>(i);
      }
    }
    char key[16] = {'c'};
    char* end = std::to_chars(key + 1, key + sizeof(key), best).ptr;
    out.emit(std::string_view(key, static_cast<std::size_t>(end - key)),
             serialize_point(p, 1.0));
  }

 private:
  const std::vector<std::vector<double>>* centroids_;
  int dims_;
};

/// Combiner and reducer both fold (weight, sum-vector) pairs; the
/// reducer emits the new centroid (the weighted mean).
class CentroidFold final : public mr::Reducer {
 public:
  CentroidFold(int dims, bool final_stage) : dims_(dims), final_(final_stage) {}

  void reduce(std::string_view key, const std::vector<std::string_view>& values, mr::Emitter& out,
              mr::WorkCounters& c) override {
    std::vector<double> acc(static_cast<std::size_t>(dims_), 0.0);
    double weight = 0;
    for (const auto& v : values) {
      std::vector<double> wp = parse_point(v, dims_ + 1);  // weight + dims
      if (wp.empty()) continue;
      weight += wp[0];
      for (int j = 0; j < dims_; ++j) acc[static_cast<std::size_t>(j)] += wp[static_cast<std::size_t>(j + 1)] * wp[0];
      c.compute_units += static_cast<double>(dims_);
    }
    if (weight <= 0) return;
    if (final_) {
      std::vector<double> mean(acc);
      for (double& v : mean) v /= weight;
      out.emit(key, serialize_point(mean, weight));
    } else {
      // Partial fold: keep the weighted sum so folding is associative.
      std::vector<double> partial(acc);
      for (double& v : partial) v /= weight;
      out.emit(key, serialize_point(partial, weight));
    }
  }

 private:
  int dims_;
  bool final_;
};

}  // namespace

std::vector<double> parse_point(std::string_view line, int dims) {
  std::vector<double> p;
  p.reserve(static_cast<std::size_t>(dims));
  const char* cur = line.data();
  const char* end = cur + line.size();
  while (cur < end && static_cast<int>(p.size()) < dims) {
    while (cur < end && *cur == ' ') ++cur;
    double v = 0;
    // from_chars works on the [cur, end) range directly, so views into
    // a larger buffer parse safely without a NUL terminator.
    auto [next, ec] = std::from_chars(cur, end, v);
    if (ec != std::errc() || next == cur) break;
    p.push_back(v);
    cur = next;
  }
  if (static_cast<int>(p.size()) != dims) return {};
  return p;
}

KMeansJob::KMeansJob(int k, int dims) : k_(k), dims_(dims) {
  require(k_ >= 2 && k_ <= 64, "KMeansJob: k out of [2,64]");
  require(dims_ >= 1 && dims_ <= 64, "KMeansJob: dims out of [1,64]");
}

std::unique_ptr<mr::SplitSource> KMeansJob::open_split(std::uint64_t block_id, Bytes exec_bytes,
                                                       std::uint64_t seed) const {
  return std::make_unique<PointSource>(exec_bytes, seed ^ block_id, k_, dims_);
}

std::unique_ptr<mr::Mapper> KMeansJob::make_mapper() const {
  require(!centroids_.empty(), "KMeansJob: prepare() must run before mapping");
  return std::make_unique<KMeansMapper>(&centroids_, dims_);
}

std::unique_ptr<mr::Reducer> KMeansJob::make_reducer() const {
  return std::make_unique<CentroidFold>(dims_, /*final_stage=*/true);
}

std::unique_ptr<mr::Reducer> KMeansJob::make_combiner() const {
  return std::make_unique<CentroidFold>(dims_, /*final_stage=*/false);
}

void KMeansJob::prepare(Bytes exec_bytes, std::uint64_t seed, mr::WorkCounters& c) {
  // Seed centroids from the first k sampled points (Forgy).
  PointSource source(exec_bytes, seed, k_, dims_);
  centroids_.clear();
  mr::Record rec;
  while (static_cast<int>(centroids_.size()) < k_ && source.next(rec)) {
    std::vector<double> p = parse_point(rec.value, dims_);
    c.input_records += 1;
    c.input_bytes += static_cast<double>(rec.bytes());
    if (!p.empty()) centroids_.push_back(std::move(p));
  }
  require(static_cast<int>(centroids_.size()) == k_, "KMeansJob::prepare: not enough points");
}

}  // namespace bvl::wl
