#include "core/placement/policy.hpp"

#include <algorithm>
#include <limits>

#include "sim/network/fabric.hpp"
#include "util/error.hpp"

namespace bvl::core {

std::string to_string(MixPolicy p) {
  switch (p) {
    case MixPolicy::kClassAware: return "class-aware";
    case MixPolicy::kEarliestFinish: return "earliest-finish";
    case MixPolicy::kRoundRobin: return "round-robin";
    case MixPolicy::kRackLocal: return "rack-local";
  }
  throw Error("to_string(MixPolicy): unknown policy");
}

std::optional<MixPolicy> mix_policy_from_string(std::string_view name) {
  for (MixPolicy p : {MixPolicy::kClassAware, MixPolicy::kEarliestFinish,
                      MixPolicy::kRoundRobin, MixPolicy::kRackLocal}) {
    if (name == to_string(p)) return p;
  }
  return std::nullopt;
}

namespace placement {

namespace {

constexpr Seconds kInf = std::numeric_limits<double>::infinity();

/// Static striping: the task's pre-assigned node or nothing. Never
/// scans, so a full target defers even while other nodes idle.
class RoundRobinPolicy final : public PlacementPolicy {
 public:
  std::size_t pick(const TaskContext& task, CandidateSource& nodes) const override {
    Candidate c = nodes.at(task.rr_node);
    return c.free ? c.flat : kNoNode;
  }
};

/// Class-blind ETF: soonest estimated finish wins, ties to the first
/// candidate in enumeration order (strict less-than).
class EarliestFinishPolicy final : public PlacementPolicy {
 public:
  std::size_t pick(const TaskContext& /*task*/, CandidateSource& nodes) const override {
    std::size_t best = kNoNode;
    Seconds best_est = kInf;
    for (const Candidate& c : nodes.all()) {
      if (c.est_finish < best_est) {
        best_est = c.est_finish;
        best = c.flat;
      }
    }
    return best;
  }
};

/// Paper policy, task-granular: a free slot on the job's
/// class-preferred type always wins (pass 1). Only when the preferred
/// side is saturated does the policy weigh waiting for a preferred
/// slot (ETF) against spilling to a free slot of the other type
/// (pass 2) — so sustained pressure splits a job across big and
/// little, but speed alone never overrides the class label.
class ClassAwarePolicy final : public PlacementPolicy {
 public:
  std::size_t pick(const TaskContext& task, CandidateSource& nodes) const override {
    const std::vector<Candidate>& cs = nodes.all();
    std::size_t best = kNoNode;
    Seconds best_est = kInf;
    for (const Candidate& c : cs) {
      if (c.free && c.is_big == task.prefers_big && c.est_finish < best_est) {
        best_est = c.est_finish;
        best = c.flat;
      }
    }
    if (best != kNoNode) return best;
    for (const Candidate& c : cs) {
      if ((c.is_big == task.prefers_big || c.free) && c.est_finish < best_est) {
        best_est = c.est_finish;
        best = c.flat;
      }
    }
    return best;
  }
};

/// Fabric-feedback-aware ETF: est_finish plus a locality penalty —
/// the time the candidate's rack choice would add at the narrowest
/// links the induced shuffle flows must cross, priced against the
/// spine's live backlog. With no fabric (or no modeled spine) every
/// penalty is zero and the policy IS EarliestFinishPolicy.
class RackLocalPolicy final : public PlacementPolicy {
 public:
  explicit RackLocalPolicy(const sim::Fabric* fabric) : fabric_(fabric) {}

  std::size_t pick(const TaskContext& task, CandidateSource& nodes) const override {
    std::size_t best = kNoNode;
    Seconds best_score = kInf;
    int herd_rack = -1;
    if (penalized() && task.phase == 0) herd_rack = plurality_rack(task);
    for (const Candidate& c : nodes.all()) {
      Seconds score = c.est_finish + penalty(task, c, herd_rack);
      if (score < best_score) {
        best_score = score;
        best = c.flat;
      }
    }
    return best;
  }

 private:
  /// The one case reads_job_context() declares for this policy.
  bool penalized() const { return reads_job_context(MixPolicy::kRackLocal, fabric_); }

  /// Rack holding the plurality of the job's already-placed maps
  /// (lowest rack wins ties), or -1 when none are placed yet — the
  /// first map of a job is free to chase pure ETF and thereby picks
  /// the job's home rack.
  int plurality_rack(const TaskContext& task) const {
    if (task.maps_by_node == nullptr || task.maps_by_node->empty()) return -1;
    std::vector<int> count(static_cast<std::size_t>(fabric_->topology().racks()), 0);
    for (const auto& [flat, maps] : *task.maps_by_node) {
      count[static_cast<std::size_t>(fabric_->rack_of(static_cast<int>(flat)))] += maps;
    }
    int best_rack = 0;
    for (std::size_t r = 1; r < count.size(); ++r) {
      if (count[r] > count[static_cast<std::size_t>(best_rack)]) best_rack = static_cast<int>(r);
    }
    return best_rack;
  }

  Seconds penalty(const TaskContext& task, const Candidate& c, int herd_rack) const {
    if (!penalized()) return 0;
    const double spine = fabric_->spine_link_rate();
    const double tor = fabric_->tor_rate(c.rack);
    if (task.phase == 1) {
      // Reduce: decompose this task's fetch across the job's map
      // homes exactly as FlowRouter will, and price the remote share
      // at the links it must cross from this candidate's rack.
      if (task.maps_by_node == nullptr || task.maps_by_node->empty() || task.net_bytes <= 0) {
        return 0;
      }
      double total = 0;
      for (const auto& [flat, maps] : *task.maps_by_node) total += maps;
      if (total <= 0) return 0;
      double cross = 0, remote_in_rack = 0;
      for (const auto& [flat, maps] : *task.maps_by_node) {
        double share = task.net_bytes * (static_cast<double>(maps) / total);
        if (fabric_->rack_of(static_cast<int>(flat)) != c.rack) {
          cross += share;
        } else if (flat != c.flat) {
          remote_in_rack += share;
        }
      }
      Seconds p = cross / spine;
      if (cross > 0) {
        // The live ECMP backlog: fetching across a queued spine waits.
        p += std::max<Seconds>(0, fabric_->earliest_spine_free_at() - task.now);
      }
      if (tor > 0) p += (cross + remote_in_rack) / tor;
      return p;
    }
    // Map: herd toward the job's home rack. Placing a map off-rack
    // commits one map's share of the job's eventual shuffle volume to
    // cross the spine (plus the candidate rack's ToR) later.
    if (herd_rack < 0 || c.rack == herd_rack || task.job_maps <= 0 ||
        task.job_shuffle_bytes <= 0) {
      return 0;
    }
    double share = task.job_shuffle_bytes / static_cast<double>(task.job_maps);
    Seconds p = share / spine;
    if (tor > 0) p += share / tor;
    return p;
  }

  const sim::Fabric* fabric_;
};

}  // namespace

bool reads_job_context(MixPolicy policy, const sim::Fabric* fabric) {
  switch (policy) {
    case MixPolicy::kClassAware: return false;
    case MixPolicy::kEarliestFinish: return false;
    case MixPolicy::kRoundRobin: return true;
    case MixPolicy::kRackLocal: return fabric != nullptr && fabric->has_spine();
  }
  throw Error("reads_job_context: unknown policy");
}

std::unique_ptr<PlacementPolicy> make_placement_policy(MixPolicy policy,
                                                       const sim::Fabric* fabric) {
  switch (policy) {
    case MixPolicy::kClassAware: return std::make_unique<ClassAwarePolicy>();
    case MixPolicy::kEarliestFinish: return std::make_unique<EarliestFinishPolicy>();
    case MixPolicy::kRoundRobin: return std::make_unique<RoundRobinPolicy>();
    case MixPolicy::kRackLocal: return std::make_unique<RackLocalPolicy>(fabric);
  }
  throw Error("make_placement_policy: unknown policy");
}

}  // namespace placement
}  // namespace bvl::core
