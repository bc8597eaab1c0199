// Streaming quantile estimation for steady-state latency metrics.
// A service-mode horizon completes tens of thousands of jobs; storing
// every sojourn time to sort at the end would couple memory to the
// horizon length, so the p50/p95/p99 columns come from the P²
// algorithm (Jain & Chlamtac 1985): five markers per tracked quantile,
// adjusted with a piecewise-parabolic fit as observations stream by.
// O(1) memory, O(1) per observation, deterministic — the estimate is
// a pure function of the observation sequence, which is what lets the
// service metrics be byte-compared across runs and thread counts.
// tests/sim/test_queueing_theory.cpp pins the sketch against exact
// sample quantiles on known distributions.
#pragma once

#include <array>
#include <cstddef>

namespace bvl::sim {

/// One tracked quantile p in (0, 1). Exact until five observations
/// arrive (it just sorts them), P²-approximate afterwards.
class P2Quantile {
 public:
  explicit P2Quantile(double p);

  void add(double x);

  /// Current estimate of the p-quantile. Requires count() > 0.
  double value() const;

  double p() const { return p_; }
  std::size_t count() const { return count_; }

 private:
  double parabolic(int i, double d) const;
  double linear(int i, double d) const;

  double p_;
  std::size_t count_ = 0;
  std::array<double, 5> q_{};   ///< marker heights
  std::array<double, 5> n_{};   ///< marker positions (1-based ranks)
  std::array<double, 5> np_{};  ///< desired positions
  std::array<double, 5> dn_{};  ///< desired-position increments
};

/// The latency summary the service simulation reports: streaming
/// p50/p95/p99 plus mean/min/max, all O(1) memory.
///
/// Each quantile has its own P² estimator, and independent estimators
/// can cross: on a near-flat tail the p95 markers may settle a hair
/// above the p99 ones. The reported quantiles are therefore the three
/// estimates rearranged into ascending order (monotone rearrangement),
/// so p50 <= p95 <= p99 <= max always holds.
class LatencySketch {
 public:
  LatencySketch() : p50_(0.50), p95_(0.95), p99_(0.99) {}

  void add(double x);

  std::size_t count() const { return p50_.count(); }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  double p50() const { return ordered()[0]; }
  double p95() const { return ordered()[1]; }
  double p99() const { return ordered()[2]; }
  double max() const { return max_; }

 private:
  /// The p50/p95/p99 estimates sorted ascending and capped at max().
  std::array<double, 3> ordered() const;

  P2Quantile p50_, p95_, p99_;
  double sum_ = 0.0;
  double max_ = 0.0;
  std::size_t count_ = 0;
};

}  // namespace bvl::sim
