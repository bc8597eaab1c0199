// The benchmark's four workloads. Each drives the library's public
// functions directly, single-threaded (exec_threads = 1 everywhere):
//
//   char_micro      cold characterization of WC, ST, GP, TS across the
//                   block-size sweep and data sizes (map-side path)
//   char_real       cold characterization of NB and FP at 10 GB
//                   (reducer user code; FP-tree build and mining)
//   replay_batch    a 30-job 10 GB queue replayed on the three
//                   iso-power racks: earliest-finish and rack-local
//                   placement, each plain, on a binding multipath
//                   fabric, and under a binding rack power cap
//   replay_service  open-stream service replays on the three racks at
//                   several tens of nodes, light load to near saturation
//
// A run is: set-up (repeated, timed by the caller), then whole timed
// rounds of the same operations, then, in a traced run, component
// probes, and finally the output checks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "checks.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t char_seed = 42;    ///< Characterizer seed: the generated input data
  std::uint64_t arrival_seed = 42; ///< service arrival stream (and batch queue order)
  std::string work_dir;            ///< private scratch directory, removed by the caller
};

struct RoundResult {
  int ops = 0;      ///< characterizations or replays attempted
  int failed = 0;   ///< of which threw
  double jobs = 0;  ///< MapReduce jobs finished (executed or simulated)
};

using Metrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// One set-up repetition (`rep` = 0, 1, ...): the real work done
  /// before timing starts. The last repetition's state is what the
  /// timed rounds use.
  virtual void setup(int rep) = 0;

  /// One timed round. Spans go to `tr` when it is enabled.
  virtual RoundResult round(Tracer& tr) = 0;

  /// Checks the latest round's results (untimed).
  virtual void check_round(checks::Failures& out) = 0;

  /// Per-layer metrics of the latest round, from `tr`'s spans of
  /// `round` and the round's results (traced runs only).
  virtual void round_metrics(const Tracer& tr, int round, Metrics& m) = 0;

  /// Component probes, run once after the timed rounds of a traced
  /// run; their time is not part of any round.
  virtual void probes(Tracer& tr, Metrics& m) = 0;

  /// Checks run once per run after the rounds (untimed).
  virtual void final_checks(checks::Failures& out) = 0;
};

/// Throws std::invalid_argument on an unknown workload name.
std::unique_ptr<Workload> make_workload(const std::string& name, const RunConfig& cfg);

}  // namespace perfbench
