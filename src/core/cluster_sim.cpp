#include "core/cluster_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <set>
#include <utility>

#include "core/metrics.hpp"
#include "perf/pricer.hpp"
#include "power/power_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/resource.hpp"
#include "sim/workload/quantile.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bvl::core {

namespace {

/// One physical node on the timeline: a slot pool plus its shared
/// disk and NIC service queues.
struct Node {
  const arch::ServerConfig* server = nullptr;
  int type_id = 0;  ///< index into the rack's distinct-type table
  int index = 0;    ///< instance number within its type
  std::unique_ptr<sim::SlotPool> slots;
  std::unique_ptr<sim::ServiceQueue> disk;
  std::unique_ptr<sim::ServiceQueue> nic;
  /// The queue a task's network demand will actually wait on: the
  /// node's own NIC by default, the fabric's ingress link for this
  /// node when a modeled fabric is attached. Dispatch estimates read
  /// backlog from here so ETF sees the same device the replay uses.
  const sim::ServiceQueue* nic_est = nullptr;
  /// Estimated end times of the tasks currently holding slots, so the
  /// dispatcher can reason about *when* a full node frees up instead
  /// of only about who is free right now (myopic greedy placement
  /// strands tail tasks on slow nodes — the classic heterogeneous
  /// straggler). Completions retire the earliest estimate.
  std::multiset<Seconds> est_ends;
  int tasks_run = 0;
  Joules energy = 0;

  bool has_free_slot() const { return slots->in_use() < slots->slots(); }
  /// Delay until a slot is expected to free (0 when one is free now).
  Seconds est_slot_delay(Seconds now) const {
    if (has_free_slot() || est_ends.empty()) return 0;
    return std::max<Seconds>(0, *est_ends.begin() - now);
  }
};

/// A dispatchable unit: one map or reduce task of one job.
struct TaskRef {
  std::size_t job = 0;
  int phase = 0;  ///< 0 = map, 1 = reduce
  std::size_t task = 0;
  std::size_t rr_node = 0;  ///< static target under kRoundRobin
  /// Batch pick class: tasks of one class get the same pick from the
  /// same node state (see simulate_mix's dispatch). Unused by the
  /// service replay, which picks per queue head.
  std::size_t cls = 0;
};

/// Estimated duration of task `t` once started on `n` after `delay`:
/// compute in parallel with whatever device backlog will remain at
/// that start time, plus the serial tail. Shared verbatim by the
/// batch and service dispatchers so a task means the same thing on
/// both timelines.
Seconds est_task_duration(const perf::SimTask& t, const Node& n, Seconds now, Seconds delay) {
  Seconds start = now + delay;
  Seconds disk_delay = std::max<Seconds>(0, n.disk->free_at() - start);
  Seconds nic_delay = std::max<Seconds>(0, n.nic_est->free_at() - start);
  return std::max({t.cpu_s, disk_delay + t.disk_svc_s, nic_delay + t.nic_svc_s}) + t.serial_s +
         t.backoff_s;
}

/// Scores one task on one node for the placement layer: the unified
/// ETF signal (slot-wait delay plus estimated duration after that
/// delay; free nodes contribute delay 0 so the sum is bit-identical
/// to the historical free-node estimate).
using EstFinishFn = std::function<Seconds(const TaskRef&, const Node&)>;

/// Batch-replay candidate source: every node in flat order, the
/// historical full-scan order the goldens pin (placement ties break
/// to the first candidate).
class FlatCandidateSource final : public placement::CandidateSource {
 public:
  FlatCandidateSource(const std::vector<Node>& nodes, std::vector<bool> is_big,
                      std::vector<int> rack_of, EstFinishFn est_finish)
      : nodes_(nodes),
        is_big_(std::move(is_big)),
        rack_(std::move(rack_of)),
        est_(std::move(est_finish)) {}

  /// Sets the task the next all()/at() calls score.
  void bind(const TaskRef& tr) { cur_ = &tr; }

  const std::vector<placement::Candidate>& all() override {
    scratch_.clear();
    scratch_.reserve(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) scratch_.push_back(make(i));
    return scratch_;
  }

  placement::Candidate at(std::size_t flat) override { return make(flat); }

 private:
  placement::Candidate make(std::size_t i) {
    const Node& n = nodes_[i];
    return {i, is_big_[i], n.has_free_slot(), rack_[i], est_(*cur_, n)};
  }

  const std::vector<Node>& nodes_;
  std::vector<bool> is_big_;
  std::vector<int> rack_;
  EstFinishFn est_;
  const TaskRef* cur_ = nullptr;
  std::vector<placement::Candidate> scratch_;
};

/// Per-node big-class flags and fabric rack ids for the candidate
/// sources (rack 0 everywhere when no fabric is modeled).
std::vector<bool> big_flags(const std::vector<Node>& nodes) {
  const std::string big = arch::xeon_e5_2420().name;
  std::vector<bool> flags(nodes.size(), false);
  for (std::size_t i = 0; i < nodes.size(); ++i) flags[i] = nodes[i].server->name == big;
  return flags;
}

std::vector<int> rack_ids(const std::vector<Node>& nodes, const sim::Fabric* fabric) {
  std::vector<int> racks(nodes.size(), 0);
  if (fabric != nullptr) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      racks[i] = fabric->rack_of(static_cast<int>(i));
    }
  }
  return racks;
}

/// The rack's frequency-domain runtime: one DVFS level per node,
/// stepped by the configured governor on a fixed control period and
/// clamped by the rack power cap. Owns the in-flight compute legs so
/// a level change reprices the unfinished fraction of every running
/// task on that node (EventQueue cancellation is O(1) amortized), and
/// meters the modeled rack draw incrementally so the cap invariant —
/// draw never exceeds cap_w at any event timestamp — is enforced at
/// every draw-changing event, not just at control ticks. Only
/// constructed when PowerPlanSpec::active(): the default path
/// schedules zero extra events and stays byte-identical.
///
/// A node's modeled draw depends only on its DVFS level and busy slot
/// count, so each node carries a table of PowerModel::node_draw over
/// [level][busy 0..slots], filled once at construction; the cap loop
/// reads it instead of re-evaluating the model on every admission
/// probe (same doubles, summed in the same order).
class PowerRuntime {
 public:
  PowerRuntime(sim::Simulation& sim, const power::PowerPlanSpec& spec,
               const std::vector<Node>& nodes, Hertz base_freq, const char* where)
      : sim_(sim), spec_(spec), nodes_(nodes) {
    require(spec.period_s > 0, std::string(where) + ": power control period must be > 0");
    if (spec.governor == power::GovernorKind::kOndemand) {
      require(0 < spec.down_threshold && spec.down_threshold < spec.up_threshold &&
                  spec.up_threshold <= 1.0,
              std::string(where) + ": need 0 < down_threshold < up_threshold <= 1");
    }
    Watts idle_total = 0;
    Watts max_delta = 0;
    state_.reserve(nodes.size());
    for (const Node& n : nodes) {
      NodeState s(*n.server, n.slots->slots());
      s.base_level = s.table->level_of(base_freq);
      switch (spec.governor) {
        case power::GovernorKind::kPerformance: s.level = s.table->levels() - 1; break;
        case power::GovernorKind::kPowersave: s.level = 0; break;
        default: s.level = s.base_level; break;  // kNone (cap only), kOndemand
      }
      s.plan = power::FreqPlan::constant(s.table->level_freq(s.level));
      idle_total += n.server->power.system_idle_w;
      max_delta = std::max(max_delta, s.draw_at(0, 1) - s.draw_at(0, 0));
      state_.push_back(std::move(s));
    }
    if (spec.rack_cap_w > 0) {
      // Liveness: with the whole rack idle at the bottom level the cap
      // must still admit one task somewhere, or pending work could
      // deadlock with nothing running to re-trigger dispatch.
      require(spec.rack_cap_w >= idle_total + max_delta,
              std::string(where) +
                  ": rack_cap_w is below the rack idle floor plus one bottom-level task — "
                  "no task could ever be admitted");
    }
    meter();
  }

  /// Wires the control loop: `more_work` keeps it alive (a tick that
  /// sees no more work does not reschedule, letting the queue drain);
  /// `after_tick` re-runs dispatch, since a tick can free capped
  /// capacity (level lowering under ondemand/powersave, headroom
  /// recovery toward the base level under a cap).
  void begin(std::function<bool()> more_work, std::function<void()> after_tick) {
    more_work_ = std::move(more_work);
    after_tick_ = std::move(after_tick);
    sim_.in(spec_.period_s, [this] { tick(); });
  }

  /// Cap admission gate for one more task on `flat`: throttles the
  /// node down DVFS levels until the post-admission draw fits under
  /// the cap; false (defer — the scheduler sees capped capacity) when
  /// even the bottom level does not fit.
  bool admit(std::size_t flat) {
    if (spec_.rack_cap_w <= 0) return true;
    NodeState& s = state_[flat];
    const int busy = nodes_[flat].slots->in_use();
    require(busy < nodes_[flat].slots->slots(), "PowerRuntime::admit: node has no free slot");
    auto delta = [&] { return s.draw_at(s.level, busy + 1) - s.draw_at(s.level, busy); };
    while (draw_ + delta() > spec_.rack_cap_w + kCapEps && s.level > 0) {
      set_level(flat, s.level - 1);
    }
    return draw_ + delta() <= spec_.rack_cap_w + kCapEps;
  }

  /// The power-mode compute channel: registers the leg (so level
  /// changes can reprice it) and schedules its completion at the
  /// current level's duration. `dur_at(level)` is the task's full
  /// compute time at that DVFS level.
  void start_compute(std::size_t flat, std::function<Seconds(int)> dur_at,
                     std::function<void()> done) {
    NodeState& s = state_[flat];
    Seconds dur = dur_at(s.level);
    require(dur >= 0, "PowerRuntime: negative compute duration");
    if (dur <= 0) {  // nothing to reprice; keep the event semantics
      sim_.in(0, std::move(done));
      return;
    }
    s.legs.emplace_back();
    auto it = std::prev(s.legs.end());
    it->dur_at = std::move(dur_at);
    it->done = std::move(done);
    it->since = sim_.now();
    it->cur_dur = dur;
    it->fire = [this, flat, it] {
      auto finished = std::move(it->done);
      state_[flat].legs.erase(it);
      finished();
    };
    it->ev = sim_.in(dur, it->fire);
  }

  /// Call after any slot acquire/release: advances the draw integral
  /// with the old draw, then re-samples.
  void draw_changed() { meter(); }

  PowerStats finish(Seconds end) {
    energy_ += draw_ * (end - metered_to_);
    metered_to_ = end;
    PowerStats st;
    st.active = true;
    st.cap_w = spec_.rack_cap_w;
    st.metered_energy = energy_;
    st.peak_draw = peak_;
    st.cap_exceeded = cap_exceeded_;
    st.level_changes = level_changes_;
    st.node_plans.reserve(state_.size());
    for (const NodeState& s : state_) st.node_plans.push_back(s.plan);
    return st;
  }

 private:
  static constexpr Watts kCapEps = 1e-9;

  struct ComputeLeg {
    std::function<Seconds(int)> dur_at;  ///< full duration at a DVFS level
    std::function<void()> done;
    std::function<void()> fire;  ///< erases the leg, then done()
    sim::EventId ev = 0;
    double frac = 0;     ///< fraction completed before `since`
    Seconds since = 0;   ///< when the current schedule began
    Seconds cur_dur = 0; ///< full duration at the current level
  };

  struct NodeState {
    NodeState(const arch::ServerConfig& server, int slots)
        : table(&server.dvfs),
          plan(power::FreqPlan::constant(server.dvfs.max_freq())),
          stride(slots + 1) {
      power::PowerModel model(server);
      draw_table.reserve(static_cast<std::size_t>(table->levels() * stride));
      for (int lvl = 0; lvl < table->levels(); ++lvl) {
        for (int busy = 0; busy <= slots; ++busy) {
          draw_table.push_back(model.node_draw(busy, table->level_freq(lvl)));
        }
      }
    }
    const arch::DvfsTable* table;
    power::FreqPlan plan;  ///< realized frequency timeline
    /// node_draw(busy, level_freq(level)) at [level * stride + busy].
    std::vector<Watts> draw_table;
    int stride;  ///< slots + 1
    int level = 0;
    int base_level = 0;    ///< the static operating point (cap recovery target)
    double last_busy = 0;  ///< busy-slot-seconds snapshot at the last tick
    std::list<ComputeLeg> legs;
    Hertz freq() const { return table->level_freq(level); }
    Watts draw_at(int lvl, int busy) const {
      return draw_table[static_cast<std::size_t>(lvl * stride + busy)];
    }
  };

  Watts draw_now() const {
    Watts w = 0;
    for (std::size_t i = 0; i < state_.size(); ++i) {
      w += state_[i].draw_at(state_[i].level, nodes_[i].slots->in_use());
    }
    return w;
  }

  void meter() {
    Seconds now = sim_.now();
    energy_ += draw_ * (now - metered_to_);
    metered_to_ = now;
    draw_ = draw_now();
    peak_ = std::max(peak_, draw_);
    if (spec_.rack_cap_w > 0 && draw_ > spec_.rack_cap_w + kCapEps) cap_exceeded_ = true;
  }

  void set_level(std::size_t flat, int level) {
    NodeState& s = state_[flat];
    if (level == s.level) return;
    s.level = level;
    s.plan.append(sim_.now(), s.freq());
    ++level_changes_;
    reprice(flat);
    meter();
  }

  /// Mid-flight repricing: every running compute leg on the node
  /// carries its completed fraction across the level change and the
  /// remainder is rescheduled at the new level's duration.
  void reprice(std::size_t flat) {
    NodeState& s = state_[flat];
    Seconds now = sim_.now();
    for (ComputeLeg& leg : s.legs) {
      if (leg.cur_dur > 0) leg.frac += (now - leg.since) / leg.cur_dur;
      leg.frac = std::min(leg.frac, 1.0);
      sim_.cancel(leg.ev);
      leg.since = now;
      leg.cur_dur = leg.dur_at(s.level);
      leg.ev = sim_.in(std::max<Seconds>(0, (1.0 - leg.frac) * leg.cur_dur), leg.fire);
    }
  }

  /// Would raising `flat` one level keep the rack under the cap?
  bool raise_fits(std::size_t flat) const {
    if (spec_.rack_cap_w <= 0) return true;
    const NodeState& s = state_[flat];
    int busy = nodes_[flat].slots->in_use();
    return draw_ - s.draw_at(s.level, busy) + s.draw_at(s.level + 1, busy) <=
           spec_.rack_cap_w + kCapEps;
  }

  void tick() {
    if (!more_work_()) return;  // drained: stop ticking so the queue empties
    Seconds now = sim_.now();
    Seconds dt = now - last_tick_;
    for (std::size_t i = 0; i < state_.size(); ++i) {
      NodeState& s = state_[i];
      double busy = nodes_[i].slots->busy_slot_seconds(now);
      double util = dt > 0 ? (busy - s.last_busy) /
                                 (static_cast<double>(nodes_[i].slots->slots()) * dt)
                           : 0.0;
      s.last_busy = busy;
      int want = spec_.governor == power::GovernorKind::kNone
                     ? s.base_level  // cap-only: recover toward the static point
                     : power::govern_level(spec_, s.level, s.table->levels(), util);
      // Lowering is always cap-safe; each raise must keep the rack
      // under the cap with its current occupancy.
      while (s.level > want) set_level(i, s.level - 1);
      while (s.level < want && raise_fits(i)) set_level(i, s.level + 1);
    }
    last_tick_ = now;
    sim_.in(spec_.period_s, [this] { tick(); });
    after_tick_();  // a tick can free capped capacity: re-run dispatch
  }

  sim::Simulation& sim_;
  const power::PowerPlanSpec spec_;
  const std::vector<Node>& nodes_;
  std::vector<NodeState> state_;
  std::function<bool()> more_work_;
  std::function<void()> after_tick_;
  Watts draw_ = 0;
  Watts peak_ = 0;
  Joules energy_ = 0;
  Seconds metered_to_ = 0;
  Seconds last_tick_ = 0;
  bool cap_exceeded_ = false;
  int level_changes_ = 0;
};

struct JobState {
  AppClass cls = AppClass::kHybrid;
  bool prefers_big = false;
  /// Per node type: this job's tasks rendered for that type.
  std::vector<const perf::JobSim*> profile;
  /// Per [type][DVFS level] renders, only populated when the power
  /// runtime is active — the compute-leg repricing source.
  std::vector<std::vector<const perf::JobSim*>> by_level;
  int nmaps = 0;
  int maps_done = 0;
  int slowstart_after = 0;
  bool reduces_ok = false;
  Seconds first_start = std::numeric_limits<double>::infinity();
  Seconds last_finish = 0;
  Joules energy = 0;
  std::map<std::string, int> tasks_by_type;
  std::map<std::size_t, int> tasks_by_node;  ///< flat node id -> count
  /// Map tasks by flat node id — the shuffle source weights: a reduce
  /// fetches from each node in proportion to the maps it ran there.
  std::map<std::size_t, int> maps_by_node;
  /// Total reduce-side fetch volume of the job (sum of reduce
  /// net_bytes) — the locality stake a map placement commits.
  double shuffle_bytes = 0;
};

/// Builds the modeled fabric for an expanded rack, or returns null
/// when `opts` asks for the infinite-fabric default. An empty
/// topology means one rack spanning every node; an explicit one must
/// match the flat node order.
std::unique_ptr<sim::Fabric> make_fabric(sim::Simulation& sim, const MixOptions& opts,
                                         const std::vector<Node>& nodes,
                                         const perf::ClusterConfig& cluster,
                                         const char* where) {
  if (!opts.fabric.modeled) return nullptr;
  sim::Topology topo = opts.fabric.topology;
  if (topo.rack_of.empty()) topo = sim::Topology::single_rack(static_cast<int>(nodes.size()));
  require(topo.nodes() == static_cast<int>(nodes.size()),
          std::string(where) + ": fabric topology node count != rack node count");
  const sim::NicPreset& preset = sim::nic_preset(opts.fabric.nic_preset);
  preset.validate();
  std::vector<double> rates;
  rates.reserve(nodes.size());
  for (const Node& n : nodes) {
    rates.push_back(preset.endpoint_bytes_per_s(cluster.net_mbps, n.server->network_efficiency));
  }
  return std::make_unique<sim::Fabric>(sim, std::move(topo), std::move(rates));
}

/// The fabric-mode network leg of one task: maps keep their HDFS
/// traffic node-local, reduces fetch from every node that ran one of
/// the job's maps, weighted by how many.
void replay_task_via_fabric(sim::Simulation& sim, sim::ServiceQueue& disk,
                            sim::FlowRouter& router, int dst_node, int phase,
                            const std::map<std::size_t, int>& maps_by_node,
                            const perf::SimTask& t, std::function<void()> on_complete) {
  std::vector<std::pair<int, double>> sources;
  if (phase == 1) {
    sources.reserve(maps_by_node.size());
    for (const auto& [flat, count] : maps_by_node) {
      sources.emplace_back(static_cast<int>(flat), static_cast<double>(count));
    }
  }
  perf::replay_task_on_slot(
      sim, disk, t,
      [&router, dst_node, &sources](const perf::SimTask& task, std::function<void()> done) {
        router.shuffle(dst_node, sources, task.net_bytes, std::move(done));
      },
      std::move(on_complete));
}

/// Folds the fabric ledger into a result, normalizing spine busy time
/// by the caller's measurement window.
sim::FabricStats fabric_stats_over(const sim::Fabric* fabric, Seconds window) {
  if (fabric == nullptr) return {};
  sim::FabricStats s = fabric->stats();
  // spine_busy_s sums over every ECMP link, so full utilization of a
  // k-link spine integrates to k * window (multiplying by 1.0 keeps
  // the single-path figure bit-identical to the historical one).
  const double links = s.spine_links > 0 ? static_cast<double>(s.spine_links) : 1.0;
  s.spine_utilization = window > 0 ? s.spine_busy_s / (window * links) : 0.0;
  return s;
}

/// The distinct (workload, input) specs of `jobs`, in first-seen
/// order. They are characterized in parallel together with each
/// workload's classifier reference spec, so neither profile rendering
/// nor dispatch (which classifies every job) runs the engine serially.
/// Characterizer::trace is thread-safe.
std::vector<RunSpec> precharacterize(Characterizer& ch, const std::vector<JobRequest>& jobs,
                                     int exec_threads) {
  std::vector<RunSpec> distinct;
  std::set<std::pair<int, Bytes>> seen;
  for (const auto& job : jobs) {
    if (!seen.insert({static_cast<int>(job.workload), job.input_size}).second) continue;
    RunSpec spec;
    spec.workload = job.workload;
    spec.input_size = job.input_size;
    distinct.push_back(spec);
  }
  // A 1 GB job spec is its workload's reference spec: seen covers it.
  std::vector<RunSpec> warm = distinct;
  for (const auto& spec : distinct) {
    RunSpec ref = classifier_reference_spec(spec.workload);
    if (seen.insert({static_cast<int>(ref.workload), ref.input_size}).second) warm.push_back(ref);
  }
  parallel_for(exec_threads, warm.size(), [&](std::size_t i) { ch.trace(warm[i]); });
  return distinct;
}

}  // namespace

int task_slots_for(const arch::ServerConfig& server, const MixOptions& opts) {
  int cap = opts.slots_per_node > 0 ? opts.slots_per_node : kDefaultTaskSlotsPerNode;
  return std::max(1, std::min(server.cores, cap));
}

double MixResult::edxp(int x) const { return edxp_value(total_energy, makespan, x); }

MixResult simulate_mix(Characterizer& ch, const std::vector<JobRequest>& jobs,
                       const std::vector<NodeSpec>& rack, MixPolicy policy, int exec_threads,
                       const MixOptions& opts) {
  require(opts.reduce_slowstart > 0 && opts.reduce_slowstart <= 1.0,
          "simulate_mix: reduce_slowstart must be in (0, 1]");

  // ---- Expand the rack: distinct type table + flat node list ----
  std::vector<const arch::ServerConfig*> types;
  std::vector<Node> nodes;
  sim::Simulation sim;
  for (const auto& spec : rack) {
    require(spec.count >= 1, "simulate_mix: node count must be >= 1");
    int type_id = -1;
    for (std::size_t t = 0; t < types.size(); ++t) {
      if (types[t]->name == spec.server.name) type_id = static_cast<int>(t);
    }
    if (type_id < 0) {
      type_id = static_cast<int>(types.size());
      types.push_back(&spec.server);
    }
    for (int i = 0; i < spec.count; ++i) {
      Node n;
      n.server = &spec.server;
      n.type_id = type_id;
      n.index = i;
      n.slots = std::make_unique<sim::SlotPool>(sim, task_slots_for(spec.server, opts));
      n.disk = std::make_unique<sim::ServiceQueue>(sim);
      n.nic = std::make_unique<sim::ServiceQueue>(sim);
      n.nic_est = n.nic.get();
      nodes.push_back(std::move(n));
    }
  }
  require(!nodes.empty(), "simulate_mix: empty rack");

  std::unique_ptr<sim::Fabric> fabric =
      make_fabric(sim, opts, nodes, ch.cluster_config(), "simulate_mix");
  std::unique_ptr<sim::FlowRouter> router;
  if (fabric != nullptr) {
    router = std::make_unique<sim::FlowRouter>(*fabric);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i].nic_est = &fabric->ingress(static_cast<int>(i));
    }
  }

  // Frequency domains: only constructed when the governor/cap spec is
  // active, so the default replay schedules zero extra events.
  std::unique_ptr<PowerRuntime> prt;
  if (opts.power.active()) {
    prt = std::make_unique<PowerRuntime>(sim, opts.power, nodes, RunSpec{}.freq, "simulate_mix");
  }
  PowerRuntime* pr = prt.get();

  // ---- Pre-characterize distinct job specs in parallel ----
  // The engine runs dominate; the timeline replay below only consumes
  // cached traces.
  const std::vector<RunSpec> distinct = precharacterize(ch, jobs, exec_threads);

  // ---- Render each distinct spec on each node type ----
  // Key: (workload, input, type) -> per-task demands + nominal energy.
  std::map<std::tuple<int, Bytes, int>, perf::JobSim> profiles;
  for (const auto& spec : distinct) {
    for (std::size_t t = 0; t < types.size(); ++t) {
      const mr::JobTrace& trace = ch.trace(spec);
      profiles.emplace(
          std::make_tuple(static_cast<int>(spec.workload), spec.input_size, static_cast<int>(t)),
          ch.event_pricer(*types[t], opts.fabric.nic_preset)
              .job_sim(trace, spec.freq, task_slots_for(*types[t], opts)));
    }
  }

  // Per-level renders for the frequency domains: a task's compute leg
  // is repriced from these whenever a governor or the cap loop moves
  // its node between DVFS levels (I/O demands are frequency-
  // independent, so only cpu_s differs across levels).
  std::map<std::tuple<int, Bytes, int, int>, perf::JobSim> level_profiles;
  if (pr != nullptr) {
    for (const auto& spec : distinct) {
      const mr::JobTrace& trace = ch.trace(spec);
      for (std::size_t t = 0; t < types.size(); ++t) {
        for (int lvl = 0; lvl < types[t]->dvfs.levels(); ++lvl) {
          level_profiles.emplace(
              std::make_tuple(static_cast<int>(spec.workload), spec.input_size,
                              static_cast<int>(t), lvl),
              ch.event_pricer(*types[t], opts.fabric.nic_preset)
                  .job_sim(trace, types[t]->dvfs.level_freq(lvl),
                           task_slots_for(*types[t], opts)));
        }
      }
    }
  }

  // ---- Job state + the task queue (job order, maps before reduces) ----
  std::vector<JobState> states(jobs.size());
  std::vector<TaskRef> pending;
  std::size_t rr_counter = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    JobState& js = states[j];
    js.cls = classify_workload(ch, jobs[j].workload);
    js.prefers_big = schedule_by_class(js.cls, Goal::edp()).uses_xeon();
    js.profile.resize(types.size());
    for (std::size_t t = 0; t < types.size(); ++t) {
      js.profile[t] = &profiles.at(std::make_tuple(static_cast<int>(jobs[j].workload),
                                                   jobs[j].input_size, static_cast<int>(t)));
    }
    if (pr != nullptr) {
      js.by_level.resize(types.size());
      for (std::size_t t = 0; t < types.size(); ++t) {
        int nlevels = types[t]->dvfs.levels();
        js.by_level[t].resize(static_cast<std::size_t>(nlevels));
        for (int lvl = 0; lvl < nlevels; ++lvl) {
          js.by_level[t][static_cast<std::size_t>(lvl)] =
              &level_profiles.at(std::make_tuple(static_cast<int>(jobs[j].workload),
                                                 jobs[j].input_size, static_cast<int>(t), lvl));
        }
      }
    }
    js.nmaps = static_cast<int>(js.profile[0]->map_tasks.size());
    for (const perf::SimTask& rt : js.profile[0]->reduce_tasks) js.shuffle_bytes += rt.net_bytes;
    js.slowstart_after = std::min(
        js.nmaps,
        static_cast<int>(std::ceil(opts.reduce_slowstart * static_cast<double>(js.nmaps))));
    js.reduces_ok = js.nmaps == 0;
    for (std::size_t i = 0; i < js.profile[0]->map_tasks.size(); ++i) {
      pending.push_back({j, 0, i, rr_counter++ % nodes.size()});
    }
    for (std::size_t i = 0; i < js.profile[0]->reduce_tasks.size(); ++i) {
      pending.push_back({j, 1, i, rr_counter++ % nodes.size()});
    }
  }

  auto task_for = [&](const TaskRef& tr, int type_id) -> const perf::SimTask& {
    const perf::JobSim& p = *states[tr.job].profile[type_id];
    return tr.phase == 0 ? p.map_tasks[tr.task] : p.reduce_tasks[tr.task];
  };

  // ---- Pick classes ----
  // Under a policy that reads no job context, a task reaches its pick
  // only through its phase, its class preference and its rendered
  // demands on each node type (the candidates' est_finish). Tasks that
  // agree on all three, bit for bit, share a class — the copies of one
  // spec in the queue, and equal tasks within a job.
  std::size_t nclasses = 0;
  if (placement::reads_job_context(policy, fabric.get())) {
    for (TaskRef& tr : pending) tr.cls = nclasses++;
  } else {
    std::map<std::vector<std::uint64_t>, std::size_t> class_of;
    for (TaskRef& tr : pending) {
      std::vector<std::uint64_t> key{static_cast<std::uint64_t>(tr.phase),
                                     static_cast<std::uint64_t>(states[tr.job].prefers_big)};
      for (std::size_t t = 0; t < types.size(); ++t) {
        const perf::SimTask& st = task_for(tr, static_cast<int>(t));
        for (double v : {st.cpu_s, st.disk_svc_s, st.nic_svc_s, st.serial_s, st.backoff_s,
                         st.net_bytes, st.energy}) {
          key.push_back(std::bit_cast<std::uint64_t>(v));
        }
      }
      tr.cls = class_of.emplace(std::move(key), class_of.size()).first->second;
    }
    nclasses = class_of.size();
  }

  auto est_duration = [&](const TaskRef& tr, const Node& n, Seconds delay) {
    return est_task_duration(task_for(tr, n.type_id), n, sim.now(), delay);
  };
  // ETF signal: estimated completion of `tr` on `n`, counting the
  // wait for `n`'s earliest slot when the node is full. Lets the
  // dispatcher keep a task *pending* for a fast node about to free
  // rather than strand it on a slow free one.
  auto est_finish = [&](const TaskRef& tr, const Node& n) {
    Seconds delay = n.est_slot_delay(sim.now());
    return delay + est_duration(tr, n, delay);
  };

  // The pluggable placement layer: the policy object scores the
  // candidates this source enumerates (flat order — the historical
  // scan order, so ties land on the same node the inline code chose).
  // nullptr = nothing suitable free; a full pick = defer the task
  // until a completion re-runs dispatch (safe: a full node implies a
  // running task whose completion re-enters the dispatcher).
  std::unique_ptr<placement::PlacementPolicy> placement_policy =
      placement::make_placement_policy(policy, fabric.get());
  FlatCandidateSource candidates(nodes, big_flags(nodes), rack_ids(nodes, fabric.get()),
                                 est_finish);
  auto task_context = [&](const TaskRef& tr) {
    const JobState& js = states[tr.job];
    placement::TaskContext tc;
    tc.phase = tr.phase;
    tc.prefers_big = js.prefers_big;
    tc.rr_node = tr.rr_node;
    tc.now = sim.now();
    tc.net_bytes = task_for(tr, 0).net_bytes;
    tc.job_shuffle_bytes = js.shuffle_bytes;
    tc.job_maps = js.nmaps;
    tc.maps_by_node = &js.maps_by_node;
    return tc;
  };
  // One pick per class per dispatch epoch. A pick is a pure function
  // of the TaskContext and the candidates (placement/policy.hpp), and a
  // candidate's est_finish reads only slot occupancy, est_ends, disk
  // and NIC/fabric-ingress backlog and sim.now(). Those move only when
  // a task starts or completes or time advances; admit's DVFS
  // throttling never enters est_finish. So an epoch opens on every
  // entry to dispatch and after every task start, and within one each
  // class is scored once.
  struct ClassPick {
    std::uint64_t epoch = 0;  ///< epoch `flat` was scored in (0: never)
    std::size_t flat = placement::kNoNode;
  };
  std::uint64_t epoch = 0;
  std::vector<ClassPick> class_picks(nclasses);
  auto pick_node = [&](const TaskRef& tr) -> Node* {
    ClassPick& cp = class_picks[tr.cls];
    if (cp.epoch != epoch) {
      candidates.bind(tr);
      cp.flat = placement_policy->pick(task_context(tr), candidates);
      cp.epoch = epoch;
    }
    return cp.flat == placement::kNoNode ? nullptr : &nodes[cp.flat];
  };

  int tasks_left = static_cast<int>(pending.size());
  std::function<void()> dispatch;  // declared first: task completions re-enter it
  auto start_task = [&](const TaskRef& tr, Node& n) {
    bool got = n.slots->try_acquire();
    require(got, "simulate_mix: dispatched to a full node");
    JobState& js = states[tr.job];
    const perf::SimTask& t = task_for(tr, n.type_id);
    std::size_t flat = static_cast<std::size_t>(&n - nodes.data());
    js.first_start = std::min(js.first_start, sim.now());
    js.tasks_by_type[n.server->name] += 1;
    js.tasks_by_node[flat] += 1;
    if (tr.phase == 0) js.maps_by_node[flat] += 1;
    n.tasks_run += 1;
    n.est_ends.insert(sim.now() + est_duration(tr, n, 0));
    if (pr != nullptr) pr->draw_changed();
    auto on_done = [&sim, &js, &n, &dispatch, &tasks_left, tr, &t, pr] {
      n.energy += t.energy;
      js.energy += t.energy;
      js.last_finish = std::max(js.last_finish, sim.now());
      if (tr.phase == 0) {
        ++js.maps_done;
        if (!js.reduces_ok && js.maps_done >= js.slowstart_after) js.reduces_ok = true;
      }
      n.est_ends.erase(n.est_ends.begin());
      n.slots->release();
      if (pr != nullptr) pr->draw_changed();
      --tasks_left;
      dispatch();
    };
    if (pr != nullptr) {
      // Power-mode replay: the compute leg runs in the node's
      // frequency domain (repriced on level changes); disk and network
      // legs are frequency-independent and identical to the static
      // path.
      std::vector<const perf::JobSim*> lv = js.by_level[static_cast<std::size_t>(n.type_id)];
      std::function<Seconds(int)> dur_at = [lv = std::move(lv), phase = tr.phase,
                                            task = tr.task](int lvl) {
        const perf::JobSim& p = *lv[static_cast<std::size_t>(lvl)];
        return (phase == 0 ? p.map_tasks[task] : p.reduce_tasks[task]).cpu_s;
      };
      perf::ComputeChannel cpu = [pr, flat, dur_at = std::move(dur_at)](
                                     const perf::SimTask&, std::function<void()> done) {
        pr->start_compute(flat, dur_at, std::move(done));
      };
      perf::ShuffleChannel net;
      if (router != nullptr) {
        net = [rtr = router.get(), flat, phase = tr.phase, &maps = js.maps_by_node](
                  const perf::SimTask& task, std::function<void()> done) {
          std::vector<std::pair<int, double>> sources;
          if (phase == 1) {
            sources.reserve(maps.size());
            for (const auto& [f, c] : maps) {
              sources.emplace_back(static_cast<int>(f), static_cast<double>(c));
            }
          }
          rtr->shuffle(static_cast<int>(flat), sources, task.net_bytes, std::move(done));
        };
      } else {
        net = [nic = n.nic.get()](const perf::SimTask& task, std::function<void()> done) {
          nic->submit(task.nic_svc_s, std::move(done));
        };
      }
      perf::replay_task_on_slot(sim, *n.disk, t, cpu, net, std::move(on_done));
    } else if (router != nullptr) {
      replay_task_via_fabric(sim, *n.disk, *router, static_cast<int>(flat), tr.phase,
                             js.maps_by_node, t, std::move(on_done));
    } else {
      perf::replay_task_on_slot(sim, *n.disk, *n.nic, t, std::move(on_done));
    }
  };

  dispatch = [&] {
    ++epoch;
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->phase == 1 && !states[it->job].reduces_ok) {
          ++it;
          continue;
        }
        Node* n = pick_node(*it);
        if (n == nullptr || !n->has_free_slot() ||
            (pr != nullptr && !pr->admit(static_cast<std::size_t>(n - nodes.data())))) {
          // Nothing suitable, the best choice is a full node worth
          // waiting for (ETF), or the cap defers admission: leave the
          // task pending; the next task completion (or control tick)
          // re-runs dispatch.
          ++it;
          continue;
        }
        TaskRef tr = *it;
        it = pending.erase(it);
        start_task(tr, *n);
        ++epoch;
        progress = true;
      }
    }
  };

  if (pr != nullptr) pr->begin([&] { return tasks_left > 0; }, [&] { dispatch(); });
  dispatch();
  sim.run();
  require(pending.empty(), "simulate_mix: undispatched tasks after replay");

  // ---- Collect job schedules and node utilization ----
  MixResult result;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    JobState& js = states[j];
    // Primary type/node = plurality of executed tasks (first wins ties
    // via strict >), for reporting and for charging setup/cleanup.
    int primary_type = 0;
    int best_count = -1;
    for (std::size_t t = 0; t < types.size(); ++t) {
      auto it = js.tasks_by_type.find(types[t]->name);
      int count = it == js.tasks_by_type.end() ? 0 : it->second;
      if (count > best_count) {
        best_count = count;
        primary_type = static_cast<int>(t);
      }
    }
    JobSchedule s;
    s.job = jobs[j];
    s.app_class = js.cls;
    s.node_type = types[primary_type]->name;
    int node_best = -1;
    for (const auto& [flat, count] : js.tasks_by_node) {
      if (nodes[flat].type_id == primary_type && count > node_best) {
        node_best = count;
        s.node_index = nodes[flat].index;
      }
    }
    s.start = js.first_start == std::numeric_limits<double>::infinity() ? 0 : js.first_start;
    // Setup/cleanup ("other" phase) is serialized with the job's
    // tasks and charged on the primary type.
    s.finish = js.last_finish + js.profile[primary_type]->other_s;
    s.energy = js.energy + js.profile[primary_type]->other_energy;
    s.tasks_by_type = js.tasks_by_type;
    result.total_energy += s.energy;
    result.makespan = std::max(result.makespan, s.finish);
    result.schedule.push_back(std::move(s));
  }
  Seconds end = sim.now();
  for (const Node& n : nodes) {
    NodeUtilization u;
    u.node_type = n.server->name;
    u.node_index = n.index;
    u.slots = n.slots->slots();
    u.tasks_run = n.tasks_run;
    u.busy_slot_s = n.slots->busy_slot_seconds(end);
    u.disk_busy_s = n.disk->busy_s();
    // Per-task energies are *dynamic* (above-idle, the Watts-up
    // methodology), so a provisioned node additionally burns its idle
    // power for the whole makespan — the rack-level term that makes
    // the big-vs-little provisioning question interesting at all.
    Joules idle = n.server->power.system_idle_w * result.makespan;
    u.energy = n.energy + idle;
    u.slot_utilization = end > 0 ? u.busy_slot_s / (static_cast<double>(u.slots) * end) : 0.0;
    result.total_energy += idle;
    result.nodes.push_back(std::move(u));
  }
  result.fabric = fabric_stats_over(fabric.get(), result.makespan);
  if (prt != nullptr) result.power = prt->finish(sim.now());
  return result;
}

namespace {

/// Per-job state of the open stream. Unlike the batch JobState this
/// carries arrival/measurement bookkeeping and a live task count — a
/// service job's lifetime is arrival -> last task -> finalize, not
/// "part of the one mix".
struct ServiceJob {
  int tenant = 0;
  bool prefers_big = false;
  bool measured = false;
  Seconds arrival = 0;
  std::vector<const perf::JobSim*> profile;  ///< per node type
  /// Per [type][DVFS level] renders, only populated when the power
  /// runtime is active — the compute-leg repricing source.
  std::vector<std::vector<const perf::JobSim*>> by_level;
  int nmaps = 0;
  int maps_done = 0;
  int slowstart_after = 0;
  bool reduces_enqueued = false;
  int remaining = 0;  ///< tasks not yet completed
  Seconds first_start = std::numeric_limits<double>::infinity();
  Joules energy = 0;
  std::map<std::string, int> tasks_by_type;
  /// Map tasks by flat node id — shuffle source weights (same
  /// convention as the batch JobState).
  std::map<std::size_t, int> maps_by_node;
  /// Total reduce-side fetch volume (sum of reduce net_bytes).
  double shuffle_bytes = 0;
};

/// Ordered node indexes for one (node type, fabric rack) group: the
/// incremental dispatcher consults set fronts instead of scanning the
/// rack, so a placement decision is O(log n) in rack size instead of
/// O(n). Without a modeled fabric every node is in rack 0 and the
/// groups degenerate to the historical per-type indexes, byte for
/// byte; with one, each policy sees the best node of every type in
/// EVERY rack — the granularity rack-local placement needs.
///
/// `free_nodes` orders nodes with a free slot by their absolute device
/// backlog (max of disk/nic free_at) — the part of the ETF estimate
/// that varies across free nodes of one type. `busy_nodes` orders full
/// nodes by their earliest estimated task end, the ETF wait term. Both
/// keys only change at task start/completion, exactly where reindex()
/// is called.
struct TypeIndex {
  std::set<std::pair<double, std::size_t>> free_nodes;
  std::set<std::pair<double, std::size_t>> busy_nodes;
};

/// Service-replay candidate source: the free and busy front of every
/// (type, rack) group, groups in type-major order — for one rack per
/// type this is exactly the historical "free front then busy front of
/// each type in type order" scan the service timeline always ran.
class IndexCandidateSource final : public placement::CandidateSource {
 public:
  IndexCandidateSource(const std::vector<Node>& nodes, const std::vector<TypeIndex>& index,
                       std::vector<bool> is_big, std::vector<int> rack_of, EstFinishFn est_finish)
      : nodes_(nodes),
        index_(index),
        is_big_(std::move(is_big)),
        rack_(std::move(rack_of)),
        est_(std::move(est_finish)) {}

  void bind(const TaskRef& tr) { cur_ = &tr; }

  const std::vector<placement::Candidate>& all() override {
    scratch_.clear();
    for (const TypeIndex& ix : index_) {
      if (!ix.free_nodes.empty()) scratch_.push_back(make(ix.free_nodes.begin()->second));
      if (!ix.busy_nodes.empty()) scratch_.push_back(make(ix.busy_nodes.begin()->second));
    }
    return scratch_;
  }

  placement::Candidate at(std::size_t flat) override { return make(flat); }

 private:
  placement::Candidate make(std::size_t i) {
    const Node& n = nodes_[i];
    return {i, is_big_[i], n.has_free_slot(), rack_[i], est_(*cur_, n)};
  }

  const std::vector<Node>& nodes_;
  const std::vector<TypeIndex>& index_;
  std::vector<bool> is_big_;
  std::vector<int> rack_;
  EstFinishFn est_;
  const TaskRef* cur_ = nullptr;
  std::vector<placement::Candidate> scratch_;
};

}  // namespace

double ServiceResult::service_edxp(int x) const { return edxp_value(energy_per_job, sojourn.p99, x); }

ServiceResult simulate_service(Characterizer& ch, const std::vector<TenantWorkload>& tenants,
                               const std::vector<NodeSpec>& rack, const ServiceOptions& opts,
                               int exec_threads) {
  require(!tenants.empty(), "simulate_service: no tenants");
  require(opts.arrival_rate > 0, "simulate_service: arrival_rate must be > 0");
  require(opts.horizon > 0, "simulate_service: horizon must be > 0");
  require(opts.warmup >= 0 && opts.warmup < opts.horizon,
          "simulate_service: need 0 <= warmup < horizon");
  require(opts.mix.reduce_slowstart > 0 && opts.mix.reduce_slowstart <= 1.0,
          "simulate_service: reduce_slowstart must be in (0, 1]");
  double total_share = 0;
  for (const auto& t : tenants) {
    require(!t.mix.empty(), "simulate_service: tenant with empty job mix");
    require(t.tenant.arrival_share >= 0, "simulate_service: negative arrival_share");
    total_share += t.tenant.arrival_share;
  }
  require(total_share > 0, "simulate_service: all arrival shares are zero");

  // ---- Expand the rack (same shape as simulate_mix) ----
  std::vector<const arch::ServerConfig*> types;
  std::vector<Node> nodes;
  sim::Simulation sim;
  for (const auto& spec : rack) {
    require(spec.count >= 1, "simulate_service: node count must be >= 1");
    int type_id = -1;
    for (std::size_t t = 0; t < types.size(); ++t) {
      if (types[t]->name == spec.server.name) type_id = static_cast<int>(t);
    }
    if (type_id < 0) {
      type_id = static_cast<int>(types.size());
      types.push_back(&spec.server);
    }
    for (int i = 0; i < spec.count; ++i) {
      Node n;
      n.server = &spec.server;
      n.type_id = type_id;
      n.index = i;
      n.slots = std::make_unique<sim::SlotPool>(sim, task_slots_for(spec.server, opts.mix));
      n.disk = std::make_unique<sim::ServiceQueue>(sim);
      n.nic = std::make_unique<sim::ServiceQueue>(sim);
      n.nic_est = n.nic.get();
      nodes.push_back(std::move(n));
    }
  }
  require(!nodes.empty(), "simulate_service: empty rack");

  std::unique_ptr<sim::Fabric> fabric =
      make_fabric(sim, opts.mix, nodes, ch.cluster_config(), "simulate_service");
  std::unique_ptr<sim::FlowRouter> router;
  if (fabric != nullptr) {
    router = std::make_unique<sim::FlowRouter>(*fabric);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i].nic_est = &fabric->ingress(static_cast<int>(i));
    }
  }

  std::unique_ptr<PowerRuntime> prt;
  if (opts.mix.power.active()) {
    prt = std::make_unique<PowerRuntime>(sim, opts.mix.power, nodes, RunSpec{}.freq,
                                         "simulate_service");
  }
  PowerRuntime* pr = prt.get();

  // ---- Pre-characterize every distinct spec of every mix in parallel ----
  std::vector<JobRequest> all_jobs;
  for (const auto& t : tenants) all_jobs.insert(all_jobs.end(), t.mix.begin(), t.mix.end());
  const std::vector<RunSpec> distinct = precharacterize(ch, all_jobs, exec_threads);
  std::map<std::tuple<int, Bytes, int>, perf::JobSim> profiles;
  std::map<std::tuple<int, Bytes, int, int>, perf::JobSim> level_profiles;
  std::map<int, bool> prefers_big_by_workload;
  for (const auto& spec : distinct) {
    const mr::JobTrace& trace = ch.trace(spec);
    for (std::size_t t = 0; t < types.size(); ++t) {
      profiles.emplace(
          std::make_tuple(static_cast<int>(spec.workload), spec.input_size, static_cast<int>(t)),
          ch.event_pricer(*types[t], opts.mix.fabric.nic_preset)
              .job_sim(trace, spec.freq, task_slots_for(*types[t], opts.mix)));
      if (pr != nullptr) {
        for (int lvl = 0; lvl < types[t]->dvfs.levels(); ++lvl) {
          level_profiles.emplace(
              std::make_tuple(static_cast<int>(spec.workload), spec.input_size,
                              static_cast<int>(t), lvl),
              ch.event_pricer(*types[t], opts.mix.fabric.nic_preset)
                  .job_sim(trace, types[t]->dvfs.level_freq(lvl),
                           task_slots_for(*types[t], opts.mix)));
        }
      }
    }
    int w = static_cast<int>(spec.workload);
    if (prefers_big_by_workload.find(w) == prefers_big_by_workload.end()) {
      AppClass cls = classify_workload(ch, spec.workload);
      prefers_big_by_workload[w] = schedule_by_class(cls, Goal::edp()).uses_xeon();
    }
  }

  // ---- Incremental per-(type, rack) node indexes ----
  // Rack granularity only exists when a fabric is modeled; otherwise
  // nracks_ix = 1 and the groups are the historical per-type indexes.
  const std::vector<int> node_rack = rack_ids(nodes, fabric.get());
  const std::size_t nracks_ix =
      fabric != nullptr ? static_cast<std::size_t>(fabric->topology().racks()) : 1;
  std::vector<TypeIndex> index(types.size() * nracks_ix);
  auto group_of = [&](std::size_t flat) {
    return static_cast<std::size_t>(nodes[flat].type_id) * nracks_ix +
           static_cast<std::size_t>(node_rack[flat]);
  };
  std::vector<std::pair<double, std::size_t>> node_key(nodes.size());
  std::vector<bool> node_in_free(nodes.size(), false);
  auto device_backlog = [&](const Node& n) {
    return std::max(n.disk->free_at(), n.nic_est->free_at());
  };
  auto index_insert = [&](std::size_t flat) {
    Node& n = nodes[flat];
    TypeIndex& ix = index[group_of(flat)];
    if (n.has_free_slot()) {
      node_key[flat] = {device_backlog(n), flat};
      node_in_free[flat] = true;
      ix.free_nodes.insert(node_key[flat]);
    } else {
      node_key[flat] = {n.est_ends.empty() ? 0.0 : *n.est_ends.begin(), flat};
      node_in_free[flat] = false;
      ix.busy_nodes.insert(node_key[flat]);
    }
  };
  auto index_remove = [&](std::size_t flat) {
    TypeIndex& ix = index[group_of(flat)];
    if (node_in_free[flat]) {
      ix.free_nodes.erase(node_key[flat]);
    } else {
      ix.busy_nodes.erase(node_key[flat]);
    }
  };
  auto reindex = [&](std::size_t flat) {
    index_remove(flat);
    index_insert(flat);
  };
  for (std::size_t i = 0; i < nodes.size(); ++i) index_insert(i);

  // ---- Tenants, queues, streams ----
  std::vector<sim::TenantSpec> specs;
  specs.reserve(tenants.size());
  for (const auto& t : tenants) specs.push_back(t.tenant);
  sim::FairShareQueue fsq(std::move(specs));
  const int ntenants = static_cast<int>(tenants.size());

  sim::ArrivalProcess arrivals_rng(opts.arrival_rate, opts.diurnal, opts.seed);
  // Tenant/mix picks draw from their own stream so adding a tenant
  // never perturbs the arrival *times*, only the assignment.
  Pcg32 pick_rng(opts.seed, 0x74656e616e74ULL);

  std::vector<ServiceJob> jobs;
  std::vector<TaskRef> task_pool;  ///< FairShareQueue items index into this
  std::size_t rr_counter = 0;
  int tasks_outstanding = 0;  ///< enqueued, not yet completed (power ticks)
  bool stream_open = false;   ///< a future arrival is scheduled

  auto task_for = [&](const TaskRef& tr, int type_id) -> const perf::SimTask& {
    const perf::JobSim& p = *jobs[tr.job].profile[static_cast<std::size_t>(type_id)];
    return tr.phase == 0 ? p.map_tasks[tr.task] : p.reduce_tasks[tr.task];
  };

  // ---- Steady-state accounting ----
  const Seconds window = opts.horizon - opts.warmup;
  sim::LatencySketch sojourn;
  sim::LatencySketch queue_delay;
  int arrivals = 0;
  int measured_jobs = 0;
  Joules dynamic_energy = 0;
  std::vector<int> tenant_jobs(static_cast<std::size_t>(ntenants), 0);
  std::vector<double> tenant_sojourn(static_cast<std::size_t>(ntenants), 0.0);
  // Little's-law timeline integral of the measured in-system count.
  int live_measured = 0;
  double l_integral = 0;
  Seconds l_last = 0;
  auto l_advance = [&] {
    l_integral += static_cast<double>(live_measured) * (sim.now() - l_last);
    l_last = sim.now();
  };

  // Utilization snapshots bracketing the measurement window.
  std::vector<Seconds> busy0(nodes.size(), 0), busy1(nodes.size(), 0);
  sim.at(opts.warmup, [&] {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      busy0[i] = nodes[i].slots->busy_slot_seconds(opts.warmup);
    }
  });
  sim.at(opts.horizon, [&] {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      busy1[i] = nodes[i].slots->busy_slot_seconds(opts.horizon);
    }
  });

  // ---- Dispatch: fair-share order, incremental node selection ----
  // The pluggable placement layer: the ETF candidates the source
  // enumerates are the index fronts — the best free node of a group
  // is the one with the least device backlog, the best full node the
  // one whose earliest task-end estimate is soonest — in type-major
  // group order, the historical scan order. The policy then defers
  // (kNoNode) or names a node; a full pick means "worth waiting for"
  // and the driver leaves the task queued.
  std::unique_ptr<placement::PlacementPolicy> placement_policy =
      placement::make_placement_policy(opts.policy, fabric.get());
  auto est_finish = [&](const TaskRef& tr, const Node& n) {
    Seconds delay = n.est_slot_delay(sim.now());
    return delay + est_task_duration(task_for(tr, n.type_id), n, sim.now(), delay);
  };
  IndexCandidateSource candidates(nodes, index, big_flags(nodes), node_rack, est_finish);
  auto task_context = [&](const TaskRef& tr) {
    const ServiceJob& j = jobs[tr.job];
    placement::TaskContext tc;
    tc.phase = tr.phase;
    tc.prefers_big = j.prefers_big;
    tc.rr_node = tr.rr_node;
    tc.now = sim.now();
    tc.net_bytes = task_for(tr, 0).net_bytes;
    tc.job_shuffle_bytes = j.shuffle_bytes;
    tc.job_maps = j.nmaps;
    tc.maps_by_node = &j.maps_by_node;
    return tc;
  };
  auto pick_node = [&](const TaskRef& tr) -> Node* {
    candidates.bind(tr);
    std::size_t flat = placement_policy->pick(task_context(tr), candidates);
    if (flat == placement::kNoNode) return nullptr;
    Node* best = &nodes[flat];
    // The ETF winner may be a full node worth waiting for: defer (a
    // completion re-runs dispatch).
    if (!best->has_free_slot()) return nullptr;
    return best;
  };

  std::function<void()> dispatch;  // completions re-enter it
  std::function<void(std::size_t)> on_task_done;

  auto enqueue_reduces = [&](std::size_t ji) {
    ServiceJob& j = jobs[ji];
    if (j.reduces_enqueued) return;
    j.reduces_enqueued = true;
    const auto& reduces = j.profile[0]->reduce_tasks;
    for (std::size_t i = 0; i < reduces.size(); ++i) {
      task_pool.push_back({ji, 1, i, rr_counter++ % nodes.size()});
      fsq.enqueue(j.tenant, task_pool.size() - 1);
      ++tasks_outstanding;
    }
  };

  auto finalize_job = [&](std::size_t ji) {
    ServiceJob& j = jobs[ji];
    int primary = 0;
    int best_count = -1;
    for (std::size_t t = 0; t < types.size(); ++t) {
      auto it = j.tasks_by_type.find(types[t]->name);
      int count = it == j.tasks_by_type.end() ? 0 : it->second;
      if (count > best_count) {
        best_count = count;
        primary = static_cast<int>(t);
      }
    }
    j.energy += j.profile[static_cast<std::size_t>(primary)]->other_energy;
    if (!j.measured) return;
    l_advance();
    --live_measured;
    Seconds s = sim.now() - j.arrival;
    sojourn.add(s);
    Seconds first = j.first_start == std::numeric_limits<double>::infinity() ? sim.now()
                                                                             : j.first_start;
    queue_delay.add(first - j.arrival);
    dynamic_energy += j.energy;
    ++measured_jobs;
    tenant_jobs[static_cast<std::size_t>(j.tenant)] += 1;
    tenant_sojourn[static_cast<std::size_t>(j.tenant)] += s;
  };

  on_task_done = [&](std::size_t ji) {
    ServiceJob& j = jobs[ji];
    --j.remaining;
    if (j.remaining > 0) return;
    // Setup/cleanup serialized after the last task, charged on the
    // plurality type (same convention as the batch schedule).
    int primary = 0;
    int best_count = -1;
    for (std::size_t t = 0; t < types.size(); ++t) {
      auto it = j.tasks_by_type.find(types[t]->name);
      int count = it == j.tasks_by_type.end() ? 0 : it->second;
      if (count > best_count) {
        best_count = count;
        primary = static_cast<int>(t);
      }
    }
    sim.in(j.profile[static_cast<std::size_t>(primary)]->other_s,
           [&, ji] { finalize_job(ji); });
  };

  auto start_task = [&](TaskRef tr, Node& n) {
    bool got = n.slots->try_acquire();
    require(got, "simulate_service: dispatched to a full node");
    std::size_t flat = static_cast<std::size_t>(&n - nodes.data());
    ServiceJob& j = jobs[tr.job];
    const perf::SimTask& t = task_for(tr, n.type_id);
    j.first_start = std::min(j.first_start, sim.now());
    j.tasks_by_type[n.server->name] += 1;
    if (tr.phase == 0) j.maps_by_node[flat] += 1;
    n.tasks_run += 1;
    n.est_ends.insert(sim.now() + est_task_duration(t, n, sim.now(), 0));
    if (pr != nullptr) pr->draw_changed();
    std::size_t ji = tr.job;
    int phase = tr.phase;
    auto on_done = [&sim, &jobs, &n, &nodes, &reindex, &on_task_done, &enqueue_reduces,
                    &dispatch, &tasks_outstanding, ji, phase, &t, pr] {
      ServiceJob& job = jobs[ji];
      n.energy += t.energy;
      job.energy += t.energy;
      if (phase == 0) {
        ++job.maps_done;
        if (job.maps_done >= job.slowstart_after) enqueue_reduces(ji);
      }
      n.est_ends.erase(n.est_ends.begin());
      n.slots->release();
      if (pr != nullptr) pr->draw_changed();
      --tasks_outstanding;
      reindex(static_cast<std::size_t>(&n - nodes.data()));
      on_task_done(ji);
      dispatch();
    };
    if (pr != nullptr) {
      // Power-mode replay (same shape as simulate_mix): the compute
      // leg runs in the node's frequency domain. The level table is
      // copied into the channel because `jobs` reallocates as the
      // stream grows; the pointed-at renders live in level_profiles.
      std::vector<const perf::JobSim*> lv = j.by_level[static_cast<std::size_t>(n.type_id)];
      std::function<Seconds(int)> dur_at = [lv = std::move(lv), phase, task = tr.task](int lvl) {
        const perf::JobSim& p = *lv[static_cast<std::size_t>(lvl)];
        return (phase == 0 ? p.map_tasks[task] : p.reduce_tasks[task]).cpu_s;
      };
      perf::ComputeChannel cpu = [pr, flat, dur_at = std::move(dur_at)](
                                     const perf::SimTask&, std::function<void()> done) {
        pr->start_compute(flat, dur_at, std::move(done));
      };
      perf::ShuffleChannel net;
      if (router != nullptr) {
        net = [rtr = router.get(), flat, phase, &maps = j.maps_by_node](
                  const perf::SimTask& task, std::function<void()> done) {
          std::vector<std::pair<int, double>> sources;
          if (phase == 1) {
            sources.reserve(maps.size());
            for (const auto& [f, c] : maps) {
              sources.emplace_back(static_cast<int>(f), static_cast<double>(c));
            }
          }
          rtr->shuffle(static_cast<int>(flat), sources, task.net_bytes, std::move(done));
        };
      } else {
        net = [nic = n.nic.get()](const perf::SimTask& task, std::function<void()> done) {
          nic->submit(task.nic_svc_s, std::move(done));
        };
      }
      perf::replay_task_on_slot(sim, *n.disk, t, cpu, net, std::move(on_done));
    } else if (router != nullptr) {
      replay_task_via_fabric(sim, *n.disk, *router, static_cast<int>(flat), tr.phase,
                             j.maps_by_node, t, std::move(on_done));
    } else {
      perf::replay_task_on_slot(sim, *n.disk, *n.nic, t, std::move(on_done));
    }
    reindex(flat);
  };

  dispatch = [&] {
    // Fair-share order with per-tenant skip flags: one tenant's
    // unplaceable head (wrong class, RR target busy, ETF defer) must
    // not block another tenant whose head fits right now. FIFO
    // head-of-line *within* a tenant is intended — that is the YARN
    // queue semantics the fair-share layer models.
    std::vector<bool> skip(static_cast<std::size_t>(ntenants), false);
    while (true) {
      int t = fsq.next_tenant_excluding(skip);
      if (t < 0) break;
      TaskRef tr = task_pool[fsq.front(t)];
      Node* n = pick_node(tr);
      if (n == nullptr ||
          (pr != nullptr && !pr->admit(static_cast<std::size_t>(n - nodes.data())))) {
        skip[static_cast<std::size_t>(t)] = true;
        continue;
      }
      fsq.pop(t);
      fsq.charge(t, task_for(tr, n->type_id).cpu_s);
      start_task(tr, *n);
    }
  };

  // ---- The arrival stream ----
  auto pick_tenant = [&] {
    double draw = pick_rng.next_double() * total_share;
    double acc = 0;
    for (int t = 0; t < ntenants; ++t) {
      acc += tenants[static_cast<std::size_t>(t)].tenant.arrival_share;
      if (draw < acc) return t;
    }
    return ntenants - 1;
  };
  std::function<void(Seconds)> schedule_arrival;
  schedule_arrival = [&](Seconds at) {
    sim.at(at, [&, at] {
      int tenant = pick_tenant();
      const auto& mix = tenants[static_cast<std::size_t>(tenant)].mix;
      const JobRequest& req =
          mix[pick_rng.uniform(0, static_cast<std::uint64_t>(mix.size()) - 1)];

      std::size_t ji = jobs.size();
      ServiceJob j;
      j.tenant = tenant;
      j.arrival = at;
      j.measured = at >= opts.warmup;
      j.prefers_big = prefers_big_by_workload.at(static_cast<int>(req.workload));
      j.profile.resize(types.size());
      for (std::size_t t = 0; t < types.size(); ++t) {
        j.profile[t] = &profiles.at(std::make_tuple(static_cast<int>(req.workload),
                                                    req.input_size, static_cast<int>(t)));
      }
      if (pr != nullptr) {
        j.by_level.resize(types.size());
        for (std::size_t t = 0; t < types.size(); ++t) {
          int nlevels = types[t]->dvfs.levels();
          j.by_level[t].resize(static_cast<std::size_t>(nlevels));
          for (int lvl = 0; lvl < nlevels; ++lvl) {
            j.by_level[t][static_cast<std::size_t>(lvl)] =
                &level_profiles.at(std::make_tuple(static_cast<int>(req.workload),
                                                   req.input_size, static_cast<int>(t), lvl));
          }
        }
      }
      j.nmaps = static_cast<int>(j.profile[0]->map_tasks.size());
      for (const perf::SimTask& rt : j.profile[0]->reduce_tasks) j.shuffle_bytes += rt.net_bytes;
      j.slowstart_after =
          std::min(j.nmaps, static_cast<int>(std::ceil(opts.mix.reduce_slowstart *
                                                       static_cast<double>(j.nmaps))));
      j.remaining = j.nmaps + static_cast<int>(j.profile[0]->reduce_tasks.size());
      jobs.push_back(std::move(j));
      ++arrivals;
      if (jobs[ji].measured) {
        l_advance();
        ++live_measured;
      }
      for (std::size_t i = 0; i < jobs[ji].profile[0]->map_tasks.size(); ++i) {
        task_pool.push_back({ji, 0, i, rr_counter++ % nodes.size()});
        fsq.enqueue(tenant, task_pool.size() - 1);
        ++tasks_outstanding;
      }
      if (jobs[ji].nmaps == 0) enqueue_reduces(ji);
      if (jobs[ji].remaining == 0) {
        // Degenerate job with no tasks at all: only setup/cleanup.
        sim.in(jobs[ji].profile[0]->other_s, [&, ji] { finalize_job(ji); });
      }
      Seconds nxt = arrivals_rng.next_after(at);
      stream_open = nxt < opts.horizon;
      if (stream_open) schedule_arrival(nxt);
      dispatch();
    });
  };
  Seconds first_arrival = arrivals_rng.next_after(0);
  if (first_arrival < opts.horizon) {
    stream_open = true;
    schedule_arrival(first_arrival);
  }

  if (pr != nullptr) {
    pr->begin([&] { return stream_open || tasks_outstanding > 0; }, [&] { dispatch(); });
  }
  sim.run();
  require(fsq.empty(), "simulate_service: undispatched tasks after drain");

  // ---- Collect ----
  ServiceResult result;
  result.arrivals = arrivals;
  result.measured_jobs = measured_jobs;
  result.window = window;
  result.events_run = sim.events_run();
  if (measured_jobs > 0) {
    result.lambda_measured = static_cast<double>(measured_jobs) / window;
    result.sojourn = {sojourn.mean(), sojourn.p50(), sojourn.p95(), sojourn.p99(), sojourn.max()};
    result.queue_delay = {queue_delay.mean(), queue_delay.p50(), queue_delay.p95(),
                          queue_delay.p99(), queue_delay.max()};
    result.little_l = l_integral / window;
    result.little_lambda_w = result.lambda_measured * result.sojourn.mean;
    // Little's law as a bookkeeping identity: the timeline integral of
    // the in-system count and the per-job sojourn sum must describe
    // the same jobs; disagreement means a job was dropped or double
    // counted somewhere on the event path.
    double scale = std::max(1.0, std::max(result.little_l, result.little_lambda_w));
    require(std::abs(result.little_l - result.little_lambda_w) <= 1e-6 * scale,
            "simulate_service: Little's law violated (L != lambda * W)");
  }
  result.dynamic_energy = dynamic_energy;
  for (const Node& n : nodes) {
    result.idle_energy += n.server->power.system_idle_w * window;
  }
  if (measured_jobs > 0) {
    result.energy_per_job =
        (result.dynamic_energy + result.idle_energy) / static_cast<double>(measured_jobs);
  }
  for (std::size_t t = 0; t < types.size(); ++t) {
    ClassUtilization u;
    u.node_type = types[t]->name;
    u.slots_per_node = task_slots_for(*types[t], opts.mix);
    Seconds busy = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (static_cast<std::size_t>(nodes[i].type_id) != t) continue;
      u.nodes += 1;
      u.tasks_run += nodes[i].tasks_run;
      busy += busy1[i] - busy0[i];
    }
    double capacity = static_cast<double>(u.nodes) * u.slots_per_node * window;
    u.slot_utilization = capacity > 0 ? busy / capacity : 0.0;
    result.classes.push_back(std::move(u));
  }
  for (int t = 0; t < ntenants; ++t) {
    TenantServiceStats s;
    s.name = tenants[static_cast<std::size_t>(t)].tenant.name;
    s.jobs = tenant_jobs[static_cast<std::size_t>(t)];
    s.mean_sojourn_s = s.jobs > 0 ? tenant_sojourn[static_cast<std::size_t>(t)] / s.jobs : 0.0;
    s.virtual_time = fsq.virtual_time(t);
    result.tenants.push_back(std::move(s));
  }
  result.fabric = fabric_stats_over(fabric.get(), window);
  if (prt != nullptr) result.power = prt->finish(sim.now());
  return result;
}

std::vector<std::vector<NodeSpec>> comparison_racks(int big_nodes) {
  require(big_nodes >= 2, "comparison_racks: need at least 2 big nodes");
  const arch::ServerConfig xeon = arch::xeon_e5_2420();
  const arch::ServerConfig atom = arch::atom_c2758();
  // Iso-power provisioning: the all-big rack sets the idle-power
  // budget and the other racks match it as closely as whole nodes
  // allow (the paper's framing — several little nodes replace one big
  // node under the same power envelope, not the same node count).
  const double budget_w = big_nodes * xeon.power.system_idle_w;
  auto atoms_for = [&](double watts) {
    return std::max(1, static_cast<int>(std::lround(watts / atom.power.system_idle_w)));
  };
  std::vector<std::vector<NodeSpec>> racks;
  racks.push_back({NodeSpec{xeon, big_nodes}});
  racks.push_back({NodeSpec{atom, atoms_for(budget_w)}});
  int hetero_big = big_nodes / 2;
  racks.push_back(
      {NodeSpec{xeon, hetero_big},
       NodeSpec{atom, atoms_for(budget_w - hetero_big * xeon.power.system_idle_w)}});
  return racks;
}

}  // namespace bvl::core
