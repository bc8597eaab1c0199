#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "core/char_cache.hpp"
#include "core/classifier.hpp"
#include "core/cluster_sim.hpp"
#include "hdfs/dfs.hpp"
#include "mapreduce/engine.hpp"
#include "sim/network/nic_preset.hpp"
#include "workloads/grep.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using bvl::Bytes;
using bvl::GB;
using bvl::MB;
using bvl::wl::WorkloadId;

namespace {

/// The Characterizer's default execution target: every trace executes
/// about this many bytes whatever its logical size.
constexpr Bytes kTargetExec = 16 * MB;

/// Set-up characterizations run under seeds offset by this much, so
/// they never warm an entry the timed rounds look up.
constexpr std::uint64_t kWarmSeedOffset = 1000003;

std::string app(WorkloadId id) { return bvl::wl::short_name(id); }

std::unique_ptr<bvl::core::Characterizer> fresh_characterizer(std::uint64_t seed) {
  auto ch = std::make_unique<bvl::core::Characterizer>(bvl::hdfs::DfsConfig{},
                                                       bvl::perf::ClusterConfig{}, kTargetExec, seed);
  ch->set_exec_threads(1);
  return ch;
}

bvl::core::RunSpec spec_of(WorkloadId id, Bytes input, Bytes block) {
  bvl::core::RunSpec s;
  s.workload = id;
  s.input_size = input;
  s.block_size = block;
  return s;
}

void log_failure(const char* what, const std::exception& e) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what, e.what());
}

struct DirStats {
  int files = 0;
  double bytes = 0;
};

DirStats dir_stats(const std::string& dir) {
  DirStats s;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (!e.is_regular_file()) continue;
    ++s.files;
    s.bytes += static_cast<double>(e.file_size());
  }
  return s;
}

// ---- Executed-scale splits --------------------------------------------------

/// Mirror of the engine's per-split seed derivation (task_seed in
/// mapreduce/engine.cpp): the probes and the output checks regenerate
/// exactly the records each map task consumed.
std::uint64_t split_seed(std::uint64_t job_seed, std::uint64_t block_id) {
  std::uint64_t z = job_seed + 0x9e3779b97f4a7c15ULL * (block_id + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Split {
  std::uint64_t id = 0;
  Bytes exec_bytes = 0;
  std::uint64_t seed = 0;
};

std::vector<Split> executed_splits(Bytes input, Bytes block, double sim_scale,
                                   std::uint64_t job_seed) {
  std::vector<Split> out;
  for (const auto& blk : bvl::hdfs::plan_blocks(input, block)) {
    Bytes exec = std::max<Bytes>(bvl::mr::Engine::kMinExecSplit,
                                 static_cast<Bytes>(static_cast<double>(blk.length) / sim_scale));
    out.push_back({blk.id, exec, split_seed(job_seed, blk.id)});
  }
  return out;
}

double sim_scale_for(Bytes input) {
  return std::max(1.0, static_cast<double>(input) / static_cast<double>(kTargetExec));
}

class CountingEmitter final : public bvl::mr::Emitter {
 public:
  void emit(std::string_view, std::string_view) override { ++pairs; }
  std::size_t pairs = 0;
};

// ---- Characterization workloads ---------------------------------------------

class CharWorkload final : public Workload {
 public:
  CharWorkload(RunConfig cfg, std::vector<WorkloadId> apps, std::vector<bvl::core::RunSpec> specs,
               bvl::core::RunSpec warm)
      : cfg_(std::move(cfg)), apps_(std::move(apps)), specs_(std::move(specs)),
        warm_(warm), cache_dir_(cfg_.work_dir + "/round-cache") {}

  void setup(int rep) override {
    auto ch = fresh_characterizer(cfg_.char_seed + kWarmSeedOffset + static_cast<std::uint64_t>(rep));
    ch->trace(warm_);
  }

  RoundResult round(Tracer& tr) override {
    fs::remove_all(cache_dir_);
    fs::create_directories(cache_dir_);
    ch_ = fresh_characterizer(cfg_.char_seed);
    bvl::core::CharCache cache(cache_dir_);
    traces_.assign(specs_.size(), nullptr);
    stores_ = 0;
    RoundResult r;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const auto& spec = specs_[i];
      ++r.ops;
      try {
        {
          ScopedSpan s(tr, "engine." + app(spec.workload), "mapreduce");
          traces_[i] = &ch_->trace(spec);
        }
        ScopedSpan s(tr, "char_cache.store", "char_cache");
        if (cache.store(store_key(spec), *traces_[i])) ++stores_;
        r.jobs += 1;
      } catch (const std::exception& e) {
        ++r.failed;
        log_failure("characterization", e);
      }
    }
    return r;
  }

  void check_round(checks::Failures& out) override {
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      if (traces_[i] != nullptr) checks::trace_structure(specs_[i], *traces_[i], out);
    }
  }

  void round_metrics(const Tracer& tr, int round, Metrics& m) override {
    for (WorkloadId id : apps_) {
      const std::string a = app(id);
      m["engine." + a + ".s"] = tr.total("engine." + a, round);
      double compares = 0, units = 0, spills = 0, shuffle = 0;
      for (std::size_t i = 0; i < specs_.size(); ++i) {
        if (specs_[i].workload != id || traces_[i] == nullptr) continue;
        const auto total = traces_[i]->job_total();
        compares += total.compares;
        units += total.compute_units;
        spills += total.spills;
        shuffle += total.shuffle_bytes;
      }
      m["engine." + a + ".compares"] = compares;
      m["engine." + a + ".compute_units"] = units;
      m["engine." + a + ".spills"] = spills;
      m["engine." + a + ".shuffle_mb"] = shuffle / 1e6;
    }
    m["char_cache.store_s"] = tr.total("char_cache.store", round);
    m["char_cache.stores"] = stores_;
    m["char_cache.store_kb"] = dir_stats(cache_dir_).bytes / 1024.0;
  }

  void probes(Tracer& tr, Metrics& m) override {
    for (WorkloadId id : apps_) {
      const std::string a = app(id);
      // The reduce side is the full run minus this map-only run.
      auto ch = fresh_characterizer(cfg_.char_seed);
      for (const auto& spec : specs_) {
        if (spec.workload != id) continue;
        bvl::core::RunSpec map_only = spec;
        map_only.num_reducers = 0;
        ScopedSpan s(tr, "engine." + a + ".map_only", "mapreduce");
        ch->trace(map_only);
      }
      m["engine." + a + ".map_only_s"] = tr.total("engine." + a + ".map_only", -1);

      auto def = bvl::wl::make_workload(id);
      for (const auto& spec : specs_) {
        if (spec.workload != id) continue;
        for (const Split& sp : executed_splits(spec.input_size, spec.block_size,
                                               sim_scale_for(spec.input_size), cfg_.char_seed)) {
          std::size_t drained = 0;
          bvl::mr::Record rec;
          {
            ScopedSpan s(tr, "datagen." + a, "workloads");
            auto src = def->open_split(sp.id, sp.exec_bytes, sp.seed);
            while (src->next(rec)) drained += rec.bytes();
          }
          // Buffer the same records (untimed) so the map probe times
          // user map code alone.
          std::vector<std::string> keys, values;
          auto src = def->open_split(sp.id, sp.exec_bytes, sp.seed);
          while (src->next(rec)) {
            keys.emplace_back(rec.key);
            values.emplace_back(rec.value);
          }
          CountingEmitter em;
          bvl::mr::WorkCounters c;
          {
            ScopedSpan s(tr, "mapcode." + a, "workloads");
            auto mapper = def->make_mapper();
            for (std::size_t i = 0; i < keys.size(); ++i) mapper->map({keys[i], values[i]}, em, c);
          }
          if (drained == 0 || em.pairs == 0) {
            std::fprintf(stderr, "perfbench: %s probe saw an empty split\n", a.c_str());
          }
        }
      }
      m["datagen." + a + ".s"] = tr.total("datagen." + a, -1);
      m["mapcode." + a + ".s"] = tr.total("mapcode." + a, -1);
    }
  }

  void final_checks(checks::Failures& out) override {
    for (WorkloadId id : apps_) {
      if (id == WorkloadId::kNaiveBayes) continue;  // no closed-form reference output
      try {
        output_check(id, out);
      } catch (const std::exception& e) {
        out.push_back(app(id) + " output check threw: " + e.what());
      }
    }
  }

 private:
  std::string store_key(const bvl::core::RunSpec& spec) const {
    return "perfbench " + app(spec.workload) + " in=" + std::to_string(spec.input_size) +
           " blk=" + std::to_string(spec.block_size) + " seed=" + std::to_string(cfg_.char_seed);
  }

  /// Runs the app once at a small executed scale through Engine::run's
  /// output sink and compares the output with a reference computed
  /// here from the regenerated input records.
  void output_check(WorkloadId id, checks::Failures& out) const {
    bvl::mr::JobConfig jc;
    jc.input_size = 1 * GB;
    jc.block_size = 256 * MB;
    jc.sim_scale = 256;  // 4 MB executed in four 1 MB splits
    jc.exec_threads = 1;
    jc.seed = cfg_.char_seed;
    auto def = bvl::wl::make_workload(id);
    std::vector<bvl::mr::KV> output;
    bvl::mr::Engine{}.run(*def, jc, [&](const bvl::mr::KV& kv) { output.push_back(kv); });

    std::vector<std::string> lines;
    std::vector<bvl::mr::KV> rows;
    std::vector<std::size_t> per_split;
    for (const Split& sp : executed_splits(jc.input_size, jc.block_size, jc.sim_scale, jc.seed)) {
      auto src = def->open_split(sp.id, sp.exec_bytes, sp.seed);
      bvl::mr::Record rec;
      std::size_t n = 0;
      while (src->next(rec)) {
        lines.emplace_back(rec.value);
        const std::size_t tab = rec.value.find('\t');
        if (tab == std::string_view::npos) {
          rows.push_back({std::string(rec.value), ""});
        } else {
          rows.push_back({std::string(rec.value.substr(0, tab)), std::string(rec.value.substr(tab + 1))});
        }
        ++n;
      }
      per_split.push_back(n);
    }
    switch (id) {
      case WorkloadId::kWordCount: checks::wordcount_output(lines, output, out); break;
      case WorkloadId::kGrep:
        checks::grep_output(dynamic_cast<const bvl::wl::GrepJob&>(*def).pattern(), lines, output,
                            out);
        break;
      case WorkloadId::kSort: checks::sorted_permutation(rows, output, per_split, out); break;
      case WorkloadId::kTeraSort:
        checks::sorted_permutation(rows, output, {rows.size()}, out);
        break;
      case WorkloadId::kFpGrowth: checks::fp_support(lines, output, out); break;
      default: break;
    }
  }

  RunConfig cfg_;
  std::vector<WorkloadId> apps_;
  std::vector<bvl::core::RunSpec> specs_;
  bvl::core::RunSpec warm_;
  std::string cache_dir_;
  std::unique_ptr<bvl::core::Characterizer> ch_;
  std::vector<const bvl::mr::JobTrace*> traces_;
  int stores_ = 0;
};

// ---- Replay workloads -------------------------------------------------------

/// Shared by both replays: set-up characterizes every spec the replays
/// will look up into a private on-disk cache; each timed round starts
/// from a fresh Characterizer on that directory and loads them back.
class ReplayBase : public Workload {
 public:
  explicit ReplayBase(RunConfig cfg) : cfg_(std::move(cfg)) {}

  void setup(int rep) override {
    if (!cache_dir_.empty()) fs::remove_all(cache_dir_);
    cache_dir_ = cfg_.work_dir + "/cache-" + std::to_string(rep);
    setup_ch_ = fresh_characterizer(cfg_.char_seed);
    setup_ch_->set_cache_dir(cache_dir_);
    for (const auto& spec : load_specs_) setup_ch_->trace(spec);
  }

  void check_round(checks::Failures&) override {}
  void final_checks(checks::Failures&) override {}

 protected:
  /// Fresh characterizer on the set-up cache, with every spec loaded
  /// (timed as the cache-read layer).
  void load(Tracer& tr) {
    rch_ = fresh_characterizer(cfg_.char_seed);
    rch_->set_cache_dir(cache_dir_);
    const int before = dir_stats(cache_dir_).files;
    {
      ScopedSpan s(tr, "char_cache.load", "char_cache");
      for (const auto& spec : load_specs_) rch_->trace(spec);
    }
    // A load that missed re-characterized and stored a new file.
    load_misses_ = dir_stats(cache_dir_).files - before;
  }

  void load_metrics(const Tracer& tr, int round, Metrics& m) const {
    m["char_cache.load_s"] = tr.total("char_cache.load", round);
    m["char_cache.loads"] = static_cast<double>(load_specs_.size());
    m["char_cache.load_misses"] = load_misses_;
  }

  /// Times EventPricer::job_sim directly on every trace x node type x
  /// frequency the replays price.
  void pricer_probe(Tracer& tr, Metrics& m, const std::vector<bvl::core::RunSpec>& specs,
                    const std::vector<bvl::sim::NicPresetId>& presets, bool all_levels,
                    const bvl::core::MixOptions& opts) {
    int calls = 0;
    for (const auto& server : {bvl::arch::xeon_e5_2420(), bvl::arch::atom_c2758()}) {
      const int slots = bvl::core::task_slots_for(server, opts);
      for (auto preset : presets) {
        const auto& pricer = setup_ch_->event_pricer(server, preset);
        std::vector<bvl::Hertz> freqs{specs.front().freq};
        if (all_levels && preset == bvl::sim::NicPresetId::k1GbE) {
          for (int l = 0; l < server.dvfs.levels(); ++l) freqs.push_back(server.dvfs.level_freq(l));
        }
        for (const auto& spec : specs) {
          const auto& trace = setup_ch_->trace(spec);
          for (bvl::Hertz f : freqs) {
            ScopedSpan s(tr, "pricer.job_sim", "perf");
            auto js = pricer.job_sim(trace, f, slots);
            ++calls;
            if (js.map_tasks.empty()) std::fprintf(stderr, "perfbench: empty job_sim\n");
          }
        }
      }
    }
    m["pricer.job_sim_s"] = tr.total("pricer.job_sim", -1);
    m["pricer.job_sim_calls"] = calls;
  }

  RunConfig cfg_;
  std::vector<bvl::core::RunSpec> load_specs_;
  std::string cache_dir_;
  std::unique_ptr<bvl::core::Characterizer> setup_ch_;
  std::unique_ptr<bvl::core::Characterizer> rch_;
  int load_misses_ = 0;
};

class ReplayBatch final : public ReplayBase {
 public:
  explicit ReplayBatch(RunConfig cfg) : ReplayBase(std::move(cfg)) {
    const std::vector<WorkloadId> apps{WorkloadId::kWordCount, WorkloadId::kSort,
                                       WorkloadId::kGrep, WorkloadId::kTeraSort,
                                       WorkloadId::kNaiveBayes};
    // A fixed round-robin queue: the seed reaches the replays through
    // the traces (the generated data) only, so a run's dispatch work
    // does not swing with a seeded queue order.
    for (int k = 0; k < kJobsPerApp; ++k) {
      for (WorkloadId id : apps) jobs_.push_back({id, 10 * GB});
    }
    for (WorkloadId id : apps) {
      load_specs_.push_back(spec_of(id, 10 * GB, 512 * MB));
      // classify_workload's reference point, looked up by every replay.
      load_specs_.push_back(spec_of(id, 1 * GB, 512 * MB));
    }
    build_replays();
  }

  RoundResult round(Tracer& tr) override {
    load(tr);
    RoundResult r;
    results_.assign(replays_.size(), std::nullopt);
    for (std::size_t i = 0; i < replays_.size(); ++i) {
      const Replay& rp = replays_[i];
      ++r.ops;
      try {
        ScopedSpan s(tr, "replay.mix." + rp.mode, "cluster_sim");
        results_[i] = bvl::core::simulate_mix(*rch_, jobs_, racks_[rp.rack], rp.policy, 1, rp.opts);
        r.jobs += static_cast<double>(jobs_.size());
      } catch (const std::exception& e) {
        ++r.failed;
        log_failure("batch replay", e);
      }
    }
    return r;
  }

  void check_round(checks::Failures& out) override {
    if (expect_.empty()) {
      for (const Replay& rp : replays_) expect_.push_back(expectation(rp));
    }
    for (std::size_t i = 0; i < replays_.size(); ++i) {
      if (results_[i]) checks::mix_result(jobs_, *results_[i], expect_[i], out);
    }
  }

  void round_metrics(const Tracer& tr, int round, Metrics& m) override {
    load_metrics(tr, round, m);
    double tasks = 0, flows = 0, xrack = 0, levels = 0, makespan = 0, energy = 0;
    for (std::size_t i = 0; i < replays_.size(); ++i) {
      if (!results_[i]) continue;
      const auto& res = *results_[i];
      for (const auto& n : res.nodes) tasks += n.tasks_run;
      flows += static_cast<double>(res.fabric.flows);
      xrack += res.fabric.cross_rack_bytes;
      levels += res.power.level_changes;
      makespan += res.makespan;
      energy += res.total_energy;
    }
    double replay_s = 0;
    for (const char* mode : {"plain", "fabric", "powercap"}) {
      const double s = tr.total(std::string("replay.mix.") + mode, round);
      m[std::string("replay.mix.") + mode + "_s"] = s;
      replay_s += s;
    }
    m["replay.mix.tasks_placed"] = tasks;
    m["replay.mix.ns_per_task"] = tasks > 0 ? replay_s / tasks * 1e9 : 0.0;
    m["fabric.flows"] = flows;
    m["fabric.cross_rack_mb"] = xrack / 1e6;
    m["power.level_changes"] = levels;
    m["sim.mix.makespan_s"] = makespan;
    m["sim.mix.energy_mj"] = energy / 1e6;
  }

  void probes(Tracer& tr, Metrics& m) override {
    std::vector<bvl::core::RunSpec> specs;
    for (std::size_t i = 0; i < load_specs_.size(); i += 2) specs.push_back(load_specs_[i]);
    pricer_probe(tr, m, specs, {bvl::sim::NicPresetId::k1GbE, kFabricPreset}, true,
                 bvl::core::MixOptions{});
  }

 private:
  static constexpr int kJobsPerApp = 6;
  static constexpr bvl::sim::NicPresetId kFabricPreset = bvl::sim::NicPresetId::k10GbE;
  /// Shared rack budget (W) for the power-cap replays: below every
  /// rack's uncapped peak draw, so the cap binds on all three, and
  /// above every rack's idle-plus-one-task floor.
  /// A cap that binds only now and then (700 W) makes the number of
  /// DVFS level changes, and with it the replay cost, swing by ±25%
  /// between seeds; at 650 W it stays within ~5%.
  static constexpr double kRackCapW = 650;

  struct Replay {
    std::size_t rack = 0;
    bvl::core::MixPolicy policy = bvl::core::MixPolicy::kEarliestFinish;
    std::string mode;
    bvl::core::MixOptions opts;
  };

  void build_replays() {
    racks_ = bvl::core::comparison_racks(4);
    // A frozen spine: its absolute capacity is the all-big rack's 1 GbE
    // endpoint aggregate / 32, while endpoints run at 10 GbE, so the
    // spine binds under earliest-finish on every rack (rack-local
    // placement keeps the shuffles in-rack).
    auto aggregate = [](const std::vector<bvl::core::NodeSpec>& rack, bvl::sim::NicPresetId id) {
      const auto& preset = bvl::sim::nic_preset(id);
      double agg = 0;
      for (const auto& n : rack) {
        agg += n.count * preset.endpoint_bytes_per_s(bvl::perf::ClusterConfig{}.net_mbps,
                                                     n.server.network_efficiency);
      }
      return agg;
    };
    const double spine_bps = aggregate(racks_[0], bvl::sim::NicPresetId::k1GbE) / 32.0;
    for (std::size_t r = 0; r < racks_.size(); ++r) {
      for (auto policy : {bvl::core::MixPolicy::kEarliestFinish, bvl::core::MixPolicy::kRackLocal}) {
        replays_.push_back({r, policy, "plain", {}});

        Replay fab{r, policy, "fabric", {}};
        auto& f = fab.opts.fabric;
        f.modeled = true;
        f.nic_preset = kFabricPreset;
        f.topology.spine_multipath = 4;
        f.topology.spine_oversub = aggregate(racks_[r], kFabricPreset) / spine_bps;
        int flat = 0;
        for (const auto& n : racks_[r]) {
          // Both node classes striped across two racks.
          for (int i = 0; i < n.count; ++i) f.topology.rack_of.push_back(flat++ % 2);
        }
        replays_.push_back(fab);

        Replay cap{r, policy, "powercap", {}};
        cap.opts.power.rack_cap_w = kRackCapW;
        replays_.push_back(cap);
      }
    }
  }

  checks::MixExpectation expectation(const Replay& rp) {
    checks::MixExpectation e;
    const auto& rack = racks_[rp.rack];
    for (const auto& n : rack) e.total_slots += n.count * bvl::core::task_slots_for(n.server, rp.opts);
    for (const auto& job : jobs_) {
      const auto& trace = setup_ch_->trace(spec_of(job.workload, job.input_size, 512 * MB));
      e.total_tasks += static_cast<double>(trace.num_map_tasks() + trace.num_reduce_tasks());
      // Each task's residency at the top DVFS level on the node type
      // where it is shortest: no replay can run it in less slot time.
      std::vector<double> best;
      for (const auto& n : rack) {
        auto js = setup_ch_->event_pricer(n.server, rp.opts.fabric.nic_preset)
                      .job_sim(trace, n.server.dvfs.max_freq(),
                               bvl::core::task_slots_for(n.server, rp.opts));
        std::vector<double> res;
        for (const auto& t : js.map_tasks) res.push_back(t.residency());
        for (const auto& t : js.reduce_tasks) res.push_back(t.residency());
        if (best.empty()) best = res;
        for (std::size_t i = 0; i < res.size() && i < best.size(); ++i) best[i] = std::min(best[i], res[i]);
      }
      for (double b : best) e.min_slot_work_s += b;
    }
    return e;
  }

  std::vector<bvl::core::JobRequest> jobs_;
  std::vector<std::vector<bvl::core::NodeSpec>> racks_;
  std::vector<Replay> replays_;
  std::vector<checks::MixExpectation> expect_;
  std::vector<std::optional<bvl::core::MixResult>> results_;
};

class ReplayService final : public ReplayBase {
 public:
  explicit ReplayService(RunConfig cfg) : ReplayBase(std::move(cfg)) {
    bvl::core::TenantWorkload cpu;
    cpu.tenant = {"cpu-batch", 1.0, 0, 1.0};
    cpu.mix = {{WorkloadId::kWordCount, 1 * GB}, {WorkloadId::kGrep, 1 * GB}};
    bvl::core::TenantWorkload io;
    io.tenant = {"io-batch", 1.0, 0, 1.0};
    io.mix = {{WorkloadId::kSort, 1 * GB}, {WorkloadId::kTeraSort, 1 * GB}};
    tenants_ = {cpu, io};
    // The jobs' specs are also classify_workload's reference points.
    for (const auto& t : tenants_) {
      for (const auto& j : t.mix) load_specs_.push_back(spec_of(j.workload, j.input_size, 512 * MB));
    }
    racks_ = bvl::core::comparison_racks(kBigNodes);
  }

  RoundResult round(Tracer& tr) override {
    load(tr);
    RoundResult r;
    results_.assign(racks_.size() * kLoads.size(), std::nullopt);
    for (std::size_t rk = 0; rk < racks_.size(); ++rk) {
      for (std::size_t l = 0; l < kLoads.size(); ++l) {
        ++r.ops;
        try {
          ScopedSpan s(tr, "replay.service", "cluster_sim");
          auto& res = results_[rk * kLoads.size() + l];
          res = bvl::core::simulate_service(*rch_, tenants_, racks_[rk], options(kLoads[l]), 1);
          r.jobs += res->arrivals;
        } catch (const std::exception& e) {
          ++r.failed;
          log_failure("service replay", e);
        }
      }
    }
    return r;
  }

  void check_round(checks::Failures& out) override {
    for (std::size_t i = 0; i < results_.size(); ++i) {
      if (results_[i]) checks::service_result(*results_[i], options(kLoads[i % kLoads.size()]), out);
    }
  }

  void round_metrics(const Tracer& tr, int round, Metrics& m) override {
    load_metrics(tr, round, m);
    double events = 0, arrivals = 0, p99 = 0, epj = 0, inversions = 0;
    for (const auto& res : results_) {
      if (!res) continue;
      inversions += checks::quantile_inversions(*res);
      events += static_cast<double>(res->events_run);
      arrivals += res->arrivals;
      p99 += res->sojourn.p99;
      epj += res->energy_per_job;
    }
    const double s = tr.total("replay.service", round);
    m["replay.service_s"] = s;
    m["sim.events"] = events;
    m["sim.ns_per_event"] = events > 0 ? s / events * 1e9 : 0.0;
    m["service.arrivals"] = arrivals;
    m["sim.service.p99_s"] = p99;
    m["sim.service.energy_per_job_kj"] = epj / 1e3;
    m["sim.service.quantile_inversions"] = inversions;
  }

  void probes(Tracer& tr, Metrics& m) override {
    pricer_probe(tr, m, load_specs_, {bvl::sim::NicPresetId::k1GbE}, false, options(kLoads[0]).mix);
  }

 private:
  static constexpr int kBigNodes = 12;  // 12 X / 41 A / 6 X + 20 A
  /// Base arrival rates (jobs/s): light, busy, and near saturation of
  /// the all-big rack.
  static constexpr std::array<double, 3> kLoads{0.15, 0.45, 0.9};

  bvl::core::ServiceOptions options(double rate) const {
    bvl::core::ServiceOptions o;
    o.arrival_rate = rate;
    o.diurnal.amplitude = 0.3;
    o.horizon = 6 * 3600.0;
    o.warmup = 600.0;
    o.seed = cfg_.arrival_seed;
    o.mix.slots_per_node = 4;
    return o;
  }

  std::vector<bvl::core::TenantWorkload> tenants_;
  std::vector<std::vector<bvl::core::NodeSpec>> racks_;
  std::vector<std::optional<bvl::core::ServiceResult>> results_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, const RunConfig& cfg) {
  if (name == "char_micro") {
    const std::vector<WorkloadId> apps{WorkloadId::kWordCount, WorkloadId::kSort, WorkloadId::kGrep,
                                       WorkloadId::kTeraSort};
    std::vector<bvl::core::RunSpec> specs;
    for (WorkloadId id : apps) {
      for (Bytes b : {32 * MB, 64 * MB, 128 * MB, 256 * MB, 512 * MB}) specs.push_back(spec_of(id, 1 * GB, b));
      for (Bytes in : {10 * GB, 20 * GB}) specs.push_back(spec_of(id, in, 512 * MB));
    }
    return std::make_unique<CharWorkload>(cfg, apps, specs,
                                          spec_of(WorkloadId::kWordCount, 1 * GB, 512 * MB));
  }
  if (name == "char_real") {
    std::vector<bvl::core::RunSpec> specs;
    for (Bytes b : {64 * MB, 128 * MB, 256 * MB, 512 * MB}) {
      specs.push_back(spec_of(WorkloadId::kNaiveBayes, 10 * GB, b));
    }
    specs.push_back(spec_of(WorkloadId::kFpGrowth, 10 * GB, 512 * MB));
    return std::make_unique<CharWorkload>(cfg,
                                          std::vector<WorkloadId>{WorkloadId::kNaiveBayes,
                                                                  WorkloadId::kFpGrowth},
                                          specs, spec_of(WorkloadId::kNaiveBayes, 10 * GB, 512 * MB));
  }
  if (name == "replay_batch") return std::make_unique<ReplayBatch>(cfg);
  if (name == "replay_service") return std::make_unique<ReplayService>(cfg);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
