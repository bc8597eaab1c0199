#include "sim/workload/quantile.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace bvl::sim {

P2Quantile::P2Quantile(double p) : p_(p) {
  require(p > 0 && p < 1, "P2Quantile: p must be in (0, 1)");
  dn_ = {0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0};
}

double P2Quantile::parabolic(int i, double d) const {
  // Jain & Chlamtac's piecewise-parabolic (P²) height adjustment.
  return q_[i] + d / (n_[i + 1] - n_[i - 1]) *
                     ((n_[i] - n_[i - 1] + d) * (q_[i + 1] - q_[i]) / (n_[i + 1] - n_[i]) +
                      (n_[i + 1] - n_[i] - d) * (q_[i] - q_[i - 1]) / (n_[i] - n_[i - 1]));
}

double P2Quantile::linear(int i, double d) const {
  int j = i + static_cast<int>(d);
  return q_[i] + d * (q_[j] - q_[i]) / (n_[j] - n_[i]);
}

void P2Quantile::add(double x) {
  if (count_ < 5) {
    q_[count_++] = x;
    if (count_ == 5) {
      std::sort(q_.begin(), q_.end());
      for (int i = 0; i < 5; ++i) n_[i] = i + 1;
      np_ = {1.0, 1.0 + 4.0 * dn_[1], 1.0 + 4.0 * dn_[2], 1.0 + 4.0 * dn_[3], 5.0};
    }
    return;
  }
  ++count_;

  int k;  // cell containing x
  if (x < q_[0]) {
    q_[0] = x;
    k = 0;
  } else if (x >= q_[4]) {
    q_[4] = std::max(q_[4], x);
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= q_[k + 1]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) n_[i] += 1.0;
  for (int i = 0; i < 5; ++i) np_[i] += dn_[i];

  // Nudge interior markers toward their desired positions, keeping
  // heights monotone (fall back to linear when the parabola would
  // cross a neighbor).
  for (int i = 1; i <= 3; ++i) {
    double d = np_[i] - n_[i];
    if ((d >= 1.0 && n_[i + 1] - n_[i] > 1.0) || (d <= -1.0 && n_[i - 1] - n_[i] < -1.0)) {
      double dir = d >= 0 ? 1.0 : -1.0;
      double candidate = parabolic(i, dir);
      if (q_[i - 1] < candidate && candidate < q_[i + 1]) {
        q_[i] = candidate;
      } else {
        q_[i] = linear(i, dir);
      }
      n_[i] += dir;
    }
  }
}

double P2Quantile::value() const {
  require(count_ > 0, "P2Quantile: value of empty sketch");
  if (count_ >= 5) return q_[2];
  // Exact small-sample quantile: nearest-rank on the sorted prefix.
  std::array<double, 5> sorted = q_;
  std::sort(sorted.begin(), sorted.begin() + static_cast<long>(count_));
  auto rank = static_cast<std::size_t>(std::ceil(p_ * static_cast<double>(count_)));
  if (rank > 0) --rank;
  return sorted[std::min(rank, count_ - 1)];
}

std::array<double, 3> LatencySketch::ordered() const {
  std::array<double, 3> q{p50_.value(), p95_.value(), p99_.value()};
  std::sort(q.begin(), q.end());
  for (double& v : q) v = std::min(v, max_);
  return q;
}

void LatencySketch::add(double x) {
  p50_.add(x);
  p95_.add(x);
  p99_.add(x);
  sum_ += x;
  max_ = count_ == 0 ? x : std::max(max_, x);
  ++count_;
}

}  // namespace bvl::sim
