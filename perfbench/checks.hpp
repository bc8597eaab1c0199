// Correctness checks run on every benchmark run. Each one compares a
// program result against a computation made here, independently of
// the program, or against a property the modeled method must have.
// They take plain data so the check tests can feed them deliberately
// broken results (check_test.cpp).
#pragma once

#include <string>
#include <vector>

#include "core/cluster_sim.hpp"
#include "mapreduce/kv.hpp"
#include "mapreduce/trace.hpp"

namespace perfbench::checks {

/// Each failed check appends one line saying what disagreed.
using Failures = std::vector<std::string>;

// ---- Characterization -----------------------------------------------------

/// Structure of one characterized trace: map tasks = ceil(input/block),
/// Σ map logical bytes = input, and for Sort/TeraSort no map task adds
/// or loses records.
void trace_structure(const bvl::core::RunSpec& spec, const bvl::mr::JobTrace& t, Failures& out);

/// WordCount output equals a plain whitespace-token tally of `lines`.
void wordcount_output(const std::vector<std::string>& lines,
                      const std::vector<bvl::mr::KV>& output, Failures& out);

/// Grep output equals, per token containing `pattern`, its count in
/// `lines`.
void grep_output(const std::string& pattern, const std::vector<std::string>& lines,
                 const std::vector<bvl::mr::KV>& output, Failures& out);

/// Sort/TeraSort: `output` is a permutation of `input`, and each run
/// of `segments[i]` consecutive output records is ordered by key
/// (Sort: one segment per map task; TeraSort: one, total order).
void sorted_permutation(const std::vector<bvl::mr::KV>& input,
                        const std::vector<bvl::mr::KV>& output,
                        const std::vector<std::size_t>& segments, Failures& out);

/// FP-Growth: every emitted pattern ("g<group>:<items>" -> support)
/// has support at most its brute-force support over `transactions`.
void fp_support(const std::vector<std::string>& transactions,
                const std::vector<bvl::mr::KV>& output, Failures& out);

// ---- Replay ----------------------------------------------------------------

/// Bounds a batch replay must respect, computed from the job traces
/// and per-task demands outside the replay.
struct MixExpectation {
  double total_tasks = 0;      ///< Σ map + reduce tasks over the queue's traces
  double min_slot_work_s = 0;  ///< Σ per-task minimum slot residency over node types
  int total_slots = 0;         ///< Σ task slots over the rack
};

/// Every job scheduled exactly once; Σ tasks_run = Σ trace tasks;
/// makespan ≥ minimum slot-work / slots; fabric ledger conserved; the
/// power cap (when active) never exceeded.
void mix_result(const std::vector<bvl::core::JobRequest>& jobs,
                const bvl::core::MixResult& r, const MixExpectation& e, Failures& out);

/// Fabric ledger: injected = delivered = local + intra + cross, and
/// the spine links sum to the cross-rack bytes.
void fabric_ledger(const bvl::sim::FabricStats& f, Failures& out);

/// Little's law; arrivals within 4σ of the independently integrated
/// diurnal rate; every latency summary ordered, except p95 vs p99.
void service_result(const bvl::core::ServiceResult& r, const bvl::core::ServiceOptions& opts,
                    Failures& out);

/// Latency summaries (sojourn, queue delay) whose p95 exceeds their
/// p99. Counted rather than gated: simulate_service estimates each
/// quantile with its own P² sketch, and the two estimates cross on
/// some seeds (by up to ~1e-6 relative), so gating on it would make
/// `correct` depend on the seed.
int quantile_inversions(const bvl::core::ServiceResult& r);

/// Expected arrivals of a Poisson stream of base `rate` modulated by
/// 1 + A·cos(2π(t − peak)/period) over [0, horizon), integrated in
/// closed form.
double expected_arrivals(double rate, double amplitude, double period, double peak_at,
                         double horizon);

}  // namespace perfbench::checks
