// Decision fingerprint of the batch rack replay. Pins, at %.17g, what
// every placement, DVFS-level and metering decision of simulate_mix
// adds up to: makespan, total energy, per-node task counts and busy
// slot-seconds, level changes, metered energy and cross-rack bytes.
// It covers seeded small queues on comparison_racks(2..4), under every
// MixPolicy, in four modes: plain, a modeled two-rack fabric with a
// binding 4-way multipath spine, a binding cap alone, and ondemand
// under the same cap. The queues repeat specs, so tasks with identical
// demands meet the dispatcher in every mode and policy — the trace and
// figure goldens never run round-robin or rack-local under a cap.
// How the dispatcher reaches its decisions may change; what it decides
// may not. Regenerate (only after an intentional model change) with:
//   BVL_UPDATE_GOLDEN=1 ./build/tests/test_core --gtest_filter='MixDecisions.*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster_sim.hpp"
#include "power/power_model.hpp"
#include "util/rng.hpp"

namespace bvl::core {
namespace {

std::string fixture_path() { return std::string(BVL_GOLDEN_DIR) + "/MIX_DECISIONS.golden"; }

/// A queue of `n` jobs drawn from four apps at 1 or 2 GB: eight
/// distinct specs, so most specs occur more than once.
std::vector<JobRequest> seeded_queue(std::uint64_t seed, int n) {
  const wl::WorkloadId apps[] = {wl::WorkloadId::kWordCount, wl::WorkloadId::kSort,
                                 wl::WorkloadId::kGrep, wl::WorkloadId::kTeraSort};
  Pcg32 rng(seed, 0x6d6978ULL);
  std::vector<JobRequest> jobs;
  for (int i = 0; i < n; ++i) {
    wl::WorkloadId app = apps[rng.uniform(0, 3)];
    Bytes size = rng.uniform(1, 2) * GB;
    jobs.push_back({app, size});
  }
  return jobs;
}

/// Both node classes striped over two racks behind a 4-way ECMP spine
/// slow enough to bind under class-blind placement.
MixOptions fabric_mode(const std::vector<NodeSpec>& rack) {
  MixOptions opts;
  auto& f = opts.fabric;
  f.modeled = true;
  f.nic_preset = sim::NicPresetId::k10GbE;
  f.topology.spine_multipath = 4;
  f.topology.spine_oversub = 64.0;
  int flat = 0;
  for (const auto& n : rack) {
    for (int i = 0; i < n.count; ++i) f.topology.rack_of.push_back(flat++ % 2);
  }
  return opts;
}

/// A cap halfway between the liveness floor (idle rack plus one
/// bottom-level task) and the metered uncapped peak: it binds, yet
/// always admits work.
Watts binding_cap(Characterizer& ch, const std::vector<JobRequest>& jobs,
                  const std::vector<NodeSpec>& rack) {
  MixOptions probe;
  probe.power.rack_cap_w = 1e9;
  MixResult r = simulate_mix(ch, jobs, rack, MixPolicy::kEarliestFinish, 1, probe);
  Watts idle = 0, max_delta = 0;
  for (const auto& spec : rack) {
    idle += spec.server.power.system_idle_w * spec.count;
    power::PowerModel model(spec.server);
    Hertz fmin = spec.server.dvfs.min_freq();
    max_delta = std::max(max_delta, model.node_draw(1, fmin) - model.node_draw(0, fmin));
  }
  Watts floor = idle + max_delta;
  return floor + 0.5 * (r.power.peak_draw - floor);
}

void append_result(std::ostringstream& out, const std::string& head, const MixResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s makespan=%.17g energy=%.17g level_changes=%d metered=%.17g "
                "cross_rack=%.17g\n",
                head.c_str(), r.makespan, r.total_energy, r.power.level_changes,
                r.power.metered_energy, r.fabric.cross_rack_bytes);
  out << buf;
  for (const NodeUtilization& u : r.nodes) {
    std::snprintf(buf, sizeof(buf), "  %s#%d tasks=%d busy=%.17g\n", u.node_type.c_str(),
                  u.node_index, u.tasks_run, u.busy_slot_s);
    out << buf;
  }
}

std::string render_all() {
  Characterizer ch;
  std::ostringstream out;
  const MixPolicy policies[] = {MixPolicy::kClassAware, MixPolicy::kEarliestFinish,
                                MixPolicy::kRoundRobin, MixPolicy::kRackLocal};
  for (std::uint64_t seed : {1u, 2u}) {
    const std::vector<JobRequest> jobs = seeded_queue(seed, 10);
    for (int big = 2; big <= 4; ++big) {
      const auto racks = comparison_racks(big);
      for (std::size_t ri = 0; ri < racks.size(); ++ri) {
        const auto& rack = racks[ri];
        const Watts cap = binding_cap(ch, jobs, rack);
        MixOptions plain;
        MixOptions capped;
        capped.power.rack_cap_w = cap;
        MixOptions ondemand = capped;
        ondemand.power.governor = power::GovernorKind::kOndemand;
        const std::pair<const char*, MixOptions> modes[] = {
            {"plain", plain}, {"fabric", fabric_mode(rack)}, {"cap", capped},
            {"ondemand-cap", ondemand}};
        std::ostringstream where;
        where << "seed=" << seed << " big=" << big << " rack=" << ri;
        double cross_rack = 0;
        int cap_level_changes = 0;
        for (MixPolicy policy : policies) {
          for (const auto& [mode, opts] : modes) {
            MixResult r = simulate_mix(ch, jobs, rack, policy, 1, opts);
            append_result(out, where.str() + " policy=" + to_string(policy) + " mode=" + mode,
                          r);
            cross_rack += r.fabric.cross_rack_bytes;
            if (std::string(mode) == "cap") cap_level_changes += r.power.level_changes;
            EXPECT_FALSE(r.power.cap_exceeded) << where.str();
          }
        }
        // Each stressed mode must bind somewhere on this rack, or the
        // fingerprint pins only easy cases.
        EXPECT_GT(cross_rack, 0.0) << where.str();
        EXPECT_GT(cap_level_changes, 0) << where.str();
      }
    }
  }
  return out.str();
}

TEST(MixDecisions, BatchReplayMatchesFixture) {
  std::string live = render_all();
  if (std::getenv("BVL_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(fixture_path());
    ASSERT_TRUE(f.good()) << "cannot write " << fixture_path();
    f << live;
    GTEST_SKIP() << "fixture regenerated at " << fixture_path();
  }
  std::ifstream f(fixture_path());
  ASSERT_TRUE(f.good()) << "missing fixture " << fixture_path()
                        << " (run once with BVL_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << f.rdbuf();

  // Line by line, so a divergence names the first replay that moved.
  std::istringstream a(want.str()), b(live);
  std::string la, lb;
  std::size_t line = 0;
  while (std::getline(a, la)) {
    ++line;
    ASSERT_TRUE(std::getline(b, lb)) << "live output truncated at line " << line;
    ASSERT_EQ(la, lb) << "first divergence at line " << line;
  }
  EXPECT_FALSE(std::getline(b, lb)) << "live output has extra lines after " << line;
}

}  // namespace
}  // namespace bvl::core
