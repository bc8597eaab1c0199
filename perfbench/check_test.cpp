// Tests of the benchmark's correctness checks: each check accepts a
// well-formed result and rejects a deliberately broken one. Exits 1 if
// any expectation fails.
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"

namespace {

using bvl::mr::KV;
using perfbench::checks::Failures;

int g_failed = 0;

template <typename Fn>
void expect(const char* name, bool want_pass, Fn&& check) {
  Failures f;
  check(f);
  const bool passed = f.empty();
  if (passed != want_pass) {
    ++g_failed;
    std::printf("FAIL %s: expected %s, got %s%s\n", name, want_pass ? "pass" : "rejection",
                passed ? "pass" : "rejection: ", passed ? "" : f.front().c_str());
  } else {
    std::printf("ok   %s%s%s\n", name, passed ? "" : " -> ", passed ? "" : f.front().c_str());
  }
}

std::vector<KV> rows(std::initializer_list<std::pair<const char*, const char*>> kv) {
  std::vector<KV> v;
  for (const auto& [k, val] : kv) v.push_back({k, val});
  return v;
}

void sort_checks() {
  const auto input = rows({{"b", "1"}, {"a", "2"}, {"c", "3"}, {"a", "4"}});
  // Two map tasks' outputs, each sorted within itself.
  const auto good = rows({{"a", "2"}, {"b", "1"}, {"a", "4"}, {"c", "3"}});
  const std::vector<std::size_t> segs{2, 2};
  expect("sort: sorted permutation accepted", true,
         [&](Failures& f) { perfbench::checks::sorted_permutation(input, good, segs, f); });

  auto dropped = good;
  dropped.pop_back();
  expect("sort: dropped record rejected", false, [&](Failures& f) {
    perfbench::checks::sorted_permutation(input, dropped, {2, 1}, f);
  });

  auto unordered = good;
  std::swap(unordered[0], unordered[1]);
  expect("sort: unordered output rejected", false,
         [&](Failures& f) { perfbench::checks::sorted_permutation(input, unordered, segs, f); });

  auto altered = good;
  altered[3].value = std::string(1, '9');
  expect("sort: changed record rejected", false,
         [&](Failures& f) { perfbench::checks::sorted_permutation(input, altered, segs, f); });
}

void tally_checks() {
  const std::vector<std::string> lines{"the cat sat", "the hat", "a cat"};
  const auto good = rows({{"the", "2"}, {"cat", "2"}, {"sat", "1"}, {"hat", "1"}, {"a", "1"}});
  expect("wordcount: tally accepted", true,
         [&](Failures& f) { perfbench::checks::wordcount_output(lines, good, f); });
  auto dropped = good;
  dropped.erase(dropped.begin() + 2);
  expect("wordcount: dropped record rejected", false,
         [&](Failures& f) { perfbench::checks::wordcount_output(lines, dropped, f); });
  const auto miscount = rows({{"the", "2"}, {"cat", "1"}, {"sat", "1"}, {"hat", "1"}, {"a", "1"}});
  expect("wordcount: wrong count rejected", false,
         [&](Failures& f) { perfbench::checks::wordcount_output(lines, miscount, f); });

  const auto grep_good = rows({{"cat", "2"}, {"hat", "1"}, {"a", "1"}, {"sat", "1"}});
  expect("grep: substring count accepted", true,
         [&](Failures& f) { perfbench::checks::grep_output("a", lines, grep_good, f); });
  const auto grep_bad = rows({{"cat", "2"}, {"hat", "1"}, {"a", "1"}, {"sat", "1"}, {"the", "2"}});
  expect("grep: non-matching token rejected", false,
         [&](Failures& f) { perfbench::checks::grep_output("a", lines, grep_bad, f); });
}

void fp_checks() {
  const std::vector<std::string> tx{"1 2 3", "1 2", "2 3", "1 3 4"};
  expect("fp: supports within brute force accepted", true, [&](Failures& f) {
    perfbench::checks::fp_support(tx, rows({{"g0:1 2", "2"}, {"g1:3", "2"}}), f);
  });
  expect("fp: inflated support rejected", false, [&](Failures& f) {
    perfbench::checks::fp_support(tx, rows({{"g0:1 2", "3"}}), f);
  });
}

bvl::core::MixResult mix_of(const std::vector<bvl::core::JobRequest>& jobs) {
  bvl::core::MixResult r;
  r.makespan = 100;
  for (const auto& j : jobs) {
    bvl::core::JobSchedule s;
    s.job = j;
    s.start = 0;
    s.finish = 50;
    r.schedule.push_back(s);
  }
  bvl::core::NodeUtilization n;
  n.tasks_run = 12;
  r.nodes = {n};
  return r;
}

void mix_checks() {
  using bvl::wl::WorkloadId;
  const std::vector<bvl::core::JobRequest> jobs{{WorkloadId::kWordCount, 10 * bvl::GB},
                                                {WorkloadId::kSort, 10 * bvl::GB},
                                                {WorkloadId::kWordCount, 10 * bvl::GB}};
  perfbench::checks::MixExpectation e;
  e.total_tasks = 12;
  e.min_slot_work_s = 800;
  e.total_slots = 8;
  const auto good = mix_of(jobs);
  expect("mix: well-formed replay accepted", true,
         [&](Failures& f) { perfbench::checks::mix_result(jobs, good, e, f); });

  auto missing = good;
  missing.schedule.pop_back();
  expect("mix: job missing from schedule rejected", false,
         [&](Failures& f) { perfbench::checks::mix_result(jobs, missing, e, f); });

  auto twice = good;
  twice.schedule[2] = twice.schedule[1];  // Sort scheduled twice, one WordCount lost
  expect("mix: job scheduled twice rejected", false,
         [&](Failures& f) { perfbench::checks::mix_result(jobs, twice, e, f); });

  auto lost_task = good;
  lost_task.nodes[0].tasks_run = 11;
  expect("mix: lost task rejected", false,
         [&](Failures& f) { perfbench::checks::mix_result(jobs, lost_task, e, f); });

  auto too_fast = good;
  too_fast.makespan = 99;  // below 800 slot-s / 8 slots
  for (auto& s : too_fast.schedule) s.finish = 10;
  expect("mix: makespan below slot-work floor rejected", false,
         [&](Failures& f) { perfbench::checks::mix_result(jobs, too_fast, e, f); });

  auto fabric = good;
  fabric.fabric.modeled = true;
  fabric.fabric.bytes_injected = fabric.fabric.bytes_delivered = 10;
  fabric.fabric.local_bytes = 2;
  fabric.fabric.intra_rack_bytes = 3;
  fabric.fabric.cross_rack_bytes = 5;
  fabric.fabric.spine_link_bytes = {2, 3};
  expect("mix: conserved fabric ledger accepted", true,
         [&](Failures& f) { perfbench::checks::mix_result(jobs, fabric, e, f); });
  fabric.fabric.spine_link_bytes = {2, 2};
  expect("mix: spine links not summing to cross-rack rejected", false,
         [&](Failures& f) { perfbench::checks::mix_result(jobs, fabric, e, f); });

  auto capped = good;
  capped.power.active = true;
  capped.power.cap_exceeded = true;
  expect("mix: exceeded power cap rejected", false,
         [&](Failures& f) { perfbench::checks::mix_result(jobs, capped, e, f); });
}

void service_checks() {
  bvl::core::ServiceOptions opts;
  opts.arrival_rate = 0.5;
  opts.diurnal.amplitude = 0.3;
  opts.horizon = 6 * 3600.0;
  const double n = perfbench::checks::expected_arrivals(0.5, 0.3, opts.diurnal.period,
                                                        opts.diurnal.peak_at, opts.horizon);
  bvl::core::ServiceResult good;
  good.arrivals = static_cast<int>(std::lround(n));
  good.measured_jobs = good.arrivals - 10;
  good.little_l = 3.25;
  good.little_lambda_w = 3.25;
  good.sojourn = {100, 80, 200, 300, 400};
  good.queue_delay = {1, 0, 5, 9, 20};
  expect("service: consistent result accepted", true,
         [&](Failures& f) { perfbench::checks::service_result(good, opts, f); });

  auto little = good;
  little.little_lambda_w = 3.5;
  expect("service: Little's law violation rejected", false,
         [&](Failures& f) { perfbench::checks::service_result(little, opts, f); });

  auto arrivals = good;
  arrivals.arrivals = static_cast<int>(n + 5 * std::sqrt(n));
  expect("service: arrivals outside 4 sigma rejected", false,
         [&](Failures& f) { perfbench::checks::service_result(arrivals, opts, f); });

  auto quantiles = good;
  quantiles.sojourn.p50 = 250;  // above p95
  expect("service: unordered quantiles rejected", false,
         [&](Failures& f) { perfbench::checks::service_result(quantiles, opts, f); });
  auto over_max = good;
  over_max.queue_delay.p99 = 21;  // above max
  expect("service: quantile above max rejected", false,
         [&](Failures& f) { perfbench::checks::service_result(over_max, opts, f); });

  auto inverted = good;
  inverted.sojourn.p95 = 350;  // above p99, still below max
  if (perfbench::checks::quantile_inversions(good) != 0 ||
      perfbench::checks::quantile_inversions(inverted) != 1) {
    ++g_failed;
    std::printf("FAIL quantile_inversions: p95 > p99 not counted\n");
  } else {
    std::printf("ok   service: p95 > p99 counted as an inversion\n");
  }

  // Flat stream: the closed form reduces to rate x horizon.
  const double flat = perfbench::checks::expected_arrivals(2.0, 0.0, 86400, 0, 1000);
  if (std::abs(flat - 2000) > 1e-9) {
    ++g_failed;
    std::printf("FAIL expected_arrivals flat stream: %.17g\n", flat);
  }
}

}  // namespace

int main() {
  sort_checks();
  tally_checks();
  fp_checks();
  mix_checks();
  service_checks();
  std::printf("%s: %d failure(s)\n", g_failed ? "FAILED" : "PASSED", g_failed);
  return g_failed ? 1 : 0;
}
