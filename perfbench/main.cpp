// bvl_bench: runs one benchmark workload for a fixed time and prints
// one JSON result line (see perfbench/README.md).
//
//   bvl_bench --workload NAME --work-dir DIR [--seconds S] [--trace 0|1]
//             [--char-seed N] [--arrival-seed N] [--spans-out PATH]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs untraced and
// traced rounds in alternation, then the component probes, and prints
// the per-layer metrics. Exit code 0 means a result line was printed
// (its "correct" field says whether every check passed); 2 is a usage
// error, 1 a run that could not produce a result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "util/string_util.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metrics;

constexpr int kSetupReps = 3;

struct MetricDef {
  std::string name;
  std::string unit;
};

/// Every per-layer metric, in output order. A traced run reports all
/// of them; a layer the workload does not exercise reads 0.
std::vector<MetricDef> per_layer_defs() {
  std::vector<MetricDef> d;
  for (const char* a : {"WC", "ST", "GP", "TS", "NB", "FP"}) {
    const std::string p = a;
    d.push_back({"engine." + p + ".s", "s"});
    d.push_back({"engine." + p + ".map_only_s", "s"});
    d.push_back({"datagen." + p + ".s", "s"});
    d.push_back({"mapcode." + p + ".s", "s"});
    d.push_back({"engine." + p + ".compares", "count"});
    d.push_back({"engine." + p + ".compute_units", "count"});
    d.push_back({"engine." + p + ".spills", "count"});
    d.push_back({"engine." + p + ".shuffle_mb", "MB"});
  }
  for (MetricDef m : std::vector<MetricDef>{
           {"char_cache.store_s", "s"},        {"char_cache.stores", "count"},
           {"char_cache.store_kb", "KiB"},     {"char_cache.load_s", "s"},
           {"char_cache.loads", "count"},      {"char_cache.load_misses", "count"},
           {"pricer.job_sim_s", "s"},          {"pricer.job_sim_calls", "count"},
           {"replay.mix.plain_s", "s"},        {"replay.mix.fabric_s", "s"},
           {"replay.mix.powercap_s", "s"},     {"replay.mix.tasks_placed", "count"},
           {"replay.mix.ns_per_task", "ns"},   {"fabric.flows", "count"},
           {"fabric.cross_rack_mb", "MB"},     {"power.level_changes", "count"},
           {"replay.service_s", "s"},          {"sim.events", "count"},
           {"sim.ns_per_event", "ns"},         {"service.arrivals", "count"},
           {"sim.mix.makespan_s", "s"},        {"sim.mix.energy_mj", "MJ"},
           {"sim.service.p99_s", "s"},         {"sim.service.energy_per_job_kj", "kJ"},
           {"sim.service.quantile_inversions", "count"},
           {"self.mapreduce_s", "s"},          {"self.workloads_s", "s"},
           {"self.char_cache_s", "s"},         {"self.cluster_sim_s", "s"},
           {"self.perf_s", "s"},               {"self.bench_s", "s"},
           {"trace.overhead_s", "s"},          {"trace.coverage", "ratio"}}) {
    d.push_back(m);
  }
  return d;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void print_metric(bool& first, const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) value = 0;
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
              value, unit.c_str());
  first = false;
}

[[noreturn]] void usage(const char* prog, const std::string& why) {
  std::fprintf(stderr, "%s: %s\n", prog, why.c_str());
  std::fprintf(stderr,
               "usage: %s --workload char_micro|char_real|replay_batch|replay_service\n"
               "          --work-dir DIR [--seconds S] [--trace 0|1] [--char-seed N]\n"
               "          [--arrival-seed N] [--spans-out PATH]\n",
               prog);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir, spans_out;
  double seconds = 15;
  bool trace = false;
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(argv[0], "missing value for " + a);
    const std::string v = argv[++i];
    auto as_u64 = [&]() {
      const auto n = bvl::parse_non_negative_int(v);
      if (!n) usage(argv[0], "bad value for " + a + ": " + v);
      return static_cast<std::uint64_t>(*n);
    };
    if (a == "--workload") workload = v;
    else if (a == "--work-dir") work_dir = v;
    else if (a == "--spans-out") spans_out = v;
    else if (a == "--seconds") {
      seconds = static_cast<double>(as_u64());
      if (seconds < 1) usage(argv[0], "--seconds must be >= 1");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage(argv[0], "--trace takes 0 or 1");
      trace = v == "1";
    } else if (a == "--char-seed") cfg.char_seed = as_u64();
    else if (a == "--arrival-seed") cfg.arrival_seed = as_u64();
    else usage(argv[0], "unknown flag " + a);
  }
  if (workload.empty() || work_dir.empty()) usage(argv[0], "--workload and --work-dir are required");
  cfg.work_dir = work_dir;

  namespace fs = std::filesystem;
  std::unique_ptr<perfbench::Workload> w;
  try {
    w = perfbench::make_workload(workload, cfg);
  } catch (const std::exception& e) {
    usage(argv[0], e.what());
  }

  try {
    fs::create_directories(work_dir);

    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const double t0 = perfbench::now_s();
      w->setup(rep);
      setup_s.push_back(perfbench::now_s() - t0);
    }

    perfbench::checks::Failures failures;
    long long attempted = 0, failed = 0;
    std::vector<double> wall, cpu, jobs_per_s, traced_wall, coverage;
    std::map<std::string, std::vector<double>> layer_samples;
    perfbench::Tracer off(false);
    perfbench::Tracer tr(true);

    auto run_round = [&](perfbench::Tracer& t) {
      const double c0 = perfbench::process_cpu_s();
      const double t0 = perfbench::now_s();
      const perfbench::RoundResult r = w->round(t);
      const double dt = perfbench::now_s() - t0;
      const double dc = perfbench::process_cpu_s() - c0;
      attempted += r.ops;
      failed += r.failed;
      w->check_round(failures);
      return std::make_tuple(dt, dc, r.jobs);
    };

    const double start = perfbench::now_s();
    int round = 0;
    do {
      auto [dt, dc, jobs] = run_round(off);
      wall.push_back(dt);
      std::fprintf(stderr, "perfbench: round %d: %.3f s\n", round, dt);
      cpu.push_back(dc);
      jobs_per_s.push_back(jobs / dt);
      if (trace) {
        tr.set_round(round);
        const double tdt = std::get<0>(run_round(tr));
        traced_wall.push_back(tdt);
        Metrics m;
        w->round_metrics(tr, round, m);
        const double covered = tr.top_level_total(round);
        coverage.push_back(covered / tdt);
        for (const auto& [layer, self] : tr.self_time_by_layer(round)) {
          m["self." + layer + "_s"] = self;
        }
        m["self.bench_s"] = tdt - covered;
        for (const auto& [k, v] : m) layer_samples[k].push_back(v);
      }
      ++round;
    } while (perfbench::now_s() - start < seconds);

    Metrics probe;
    if (trace) {
      tr.set_round(-1);
      w->probes(tr, probe);
      for (const auto& [layer, self] : tr.self_time_by_layer(-1)) probe["self." + layer + "_s"] = self;
      if (!spans_out.empty() && !tr.write_json(spans_out)) {
        std::fprintf(stderr, "perfbench: could not write %s\n", spans_out.c_str());
      }
    }
    w->final_checks(failures);
    for (const auto& f : failures) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                failures.empty() ? "true" : "false", attempted, failed);
    bool first = true;
    if (!trace) {
      print_metric(first, "wall_s", median(wall), "s");
      print_metric(first, "cpu_s", median(cpu), "s");
      print_metric(first, "peak_rss_mb", peak_rss_mib(), "MiB");
      print_metric(first, "setup_s", median(setup_s), "s");
      print_metric(first, "jobs_per_s", median(jobs_per_s), "1/s");
    } else {
      Metrics layer;
      for (const auto& [k, v] : layer_samples) layer[k] = median(v);
      // Self time of a layer sums its share of the traced round and of
      // the probes.
      for (const auto& [k, v] : probe) layer[k] += v;
      layer["trace.overhead_s"] = median(traced_wall) - median(wall);
      layer["trace.coverage"] = median(coverage);
      for (const MetricDef& d : per_layer_defs()) {
        auto it = layer.find(d.name);
        print_metric(first, d.name, it == layer.end() ? 0.0 : it->second, d.unit);
      }
    }
    std::printf("}}\n");
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    std::error_code ec;
    fs::remove_all(work_dir, ec);
    return 1;
  }
  std::error_code ec;
  fs::remove_all(work_dir, ec);
  return 0;
}
