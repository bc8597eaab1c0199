// Queueing-theory differential tests: the discrete-event kernel is
// driven as the textbook M/M/1 and M/M/c systems — Poisson arrivals,
// exponential service, c identical servers — and the measured steady-
// state means are checked against the Erlang-C closed forms. The
// closed forms are exact; the simulation is a seeded sample, so every
// band below is sized at roughly three standard errors for the sample
// size used (means of ~100k correlated waits at rho = 0.8 carry a few
// percent of standard error; the runs are seeded, so a pass is
// reproducible, and the band documents how close agreement *should*
// be, not just how close it happened to land).
//
// This is the validation that makes the service simulation's numbers
// trustworthy: if the kernel + RNG pipeline reproduced the wrong
// M/M/c waiting time, no amount of rack modelling on top could be
// right. Little's law (L = lambda * W) is additionally asserted
// inside simulate_service itself on every run as an exact bookkeeping
// identity; here it is checked statistically on the raw kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/network/fabric.hpp"
#include "sim/network/topology.hpp"
#include "sim/workload/quantile.hpp"
#include "util/rng.hpp"

// Flow count for the contended-spine M/M/1 test below. The slow tier
// recompiles this file at BVL_FABRIC_FLOWS=1000000 (see
// tests/CMakeLists.txt) so the fabric is stressed at service-horizon
// scale outside the tier-1 gate.
#ifndef BVL_FABRIC_FLOWS
#define BVL_FABRIC_FLOWS 120000
#endif

namespace bvl::sim {
namespace {

/// Erlang-C: probability an arrival waits in M/M/c with offered load
/// a = lambda/mu (rho = a/c < 1).
double erlang_c(int c, double a) {
  double term = 1.0;  // a^k / k!
  double sum = term;
  for (int k = 1; k < c; ++k) {
    term *= a / k;
    sum += term;
  }
  double tail = term * (a / c) / (1.0 - a / c);  // a^c/c! * 1/(1-rho)
  return tail / (sum + tail);
}

struct MmcMeasured {
  double mean_wait = 0;     ///< Wq: arrival -> service start
  double mean_sojourn = 0;  ///< W: arrival -> departure
  double mean_queue_len = 0;  ///< Lq: time-average waiting count
  double mean_in_system = 0;  ///< L: time-average in-system count
  double lambda = 0;          ///< measured arrival rate over the window
};

/// Runs M/M/c on the kernel: `jobs` arrivals, the first `warmup`
/// discarded, time averages integrated from the moment job `warmup`
/// arrives to the end of the drain.
MmcMeasured run_mmc(double lambda, double mu, int c, int jobs, int warmup, std::uint64_t seed) {
  Simulation sim;
  Pcg32 arr(seed, 0xa), svc(seed, 0xb);
  int busy = 0;
  std::deque<int> waiting;
  std::vector<Seconds> arrival(static_cast<std::size_t>(jobs)),
      start(static_cast<std::size_t>(jobs)), done(static_cast<std::size_t>(jobs));
  int spawned = 0;

  // Time integrals of the waiting count and the in-system count.
  int nq = 0, ns = 0;
  double lq_integral = 0, l_integral = 0;
  Seconds last = 0, mark = -1;
  double lq_mark = 0, l_mark = 0;
  auto tick = [&] {
    lq_integral += nq * (sim.now() - last);
    l_integral += ns * (sim.now() - last);
    last = sim.now();
  };

  std::function<void()> serve = [&] {
    while (busy < c && !waiting.empty()) {
      int j = waiting.front();
      waiting.pop_front();
      tick();
      --nq;
      ++busy;
      start[static_cast<std::size_t>(j)] = sim.now();
      sim.in(svc.exponential(mu), [&, j] {
        tick();
        --ns;
        done[static_cast<std::size_t>(j)] = sim.now();
        --busy;
        serve();
      });
    }
  };
  std::function<void(Seconds)> arrive = [&](Seconds t) {
    sim.at(t, [&, t] {
      int j = spawned++;
      arrival[static_cast<std::size_t>(j)] = t;
      tick();
      ++nq;
      ++ns;
      waiting.push_back(j);
      if (j == warmup) {
        // Window opens here: snapshot the integrals so the averages
        // below cover only post-warm-up time.
        mark = t;
        lq_mark = lq_integral;
        l_mark = l_integral;
      }
      serve();
      if (spawned < jobs) arrive(t + arr.exponential(lambda));
    });
  };
  arrive(arr.exponential(lambda));
  sim.run();

  MmcMeasured m;
  int n = 0;
  for (int j = warmup; j < jobs; ++j) {
    m.mean_wait += start[static_cast<std::size_t>(j)] - arrival[static_cast<std::size_t>(j)];
    m.mean_sojourn += done[static_cast<std::size_t>(j)] - arrival[static_cast<std::size_t>(j)];
    ++n;
  }
  m.mean_wait /= n;
  m.mean_sojourn /= n;
  Seconds window = sim.now() - mark;
  m.mean_queue_len = (lq_integral - lq_mark) / window;
  m.mean_in_system = (l_integral - l_mark) / window;
  m.lambda = static_cast<double>(n) / window;
  return m;
}

TEST(QueueingTheory, Mm1MatchesClosedFormAtRho08) {
  // M/M/1, rho = 0.8: Wq = rho/(mu - lambda) = 4, W = 5, Lq = 3.2.
  const double lambda = 0.8, mu = 1.0;
  MmcMeasured m = run_mmc(lambda, mu, 1, 120000, 20000, 42);
  const double wq = lambda / mu / (mu - lambda);
  EXPECT_NEAR(m.mean_wait, wq, 0.08 * wq);
  EXPECT_NEAR(m.mean_sojourn, wq + 1.0 / mu, 0.08 * (wq + 1.0 / mu));
  EXPECT_NEAR(m.mean_queue_len, lambda * wq, 0.08 * lambda * wq);
}

TEST(QueueingTheory, Mm4MatchesErlangC) {
  // M/M/4 at rho = 0.8 (a = 3.2): Wq = C(4, 3.2)/(c*mu - lambda).
  const double lambda = 3.2, mu = 1.0;
  const int c = 4;
  MmcMeasured m = run_mmc(lambda, mu, c, 120000, 20000, 7);
  const double pw = erlang_c(c, lambda / mu);
  const double wq = pw / (c * mu - lambda);
  EXPECT_NEAR(m.mean_wait, wq, 0.08 * wq);
  EXPECT_NEAR(m.mean_sojourn, wq + 1.0 / mu, 0.08 * (wq + 1.0 / mu));
  EXPECT_NEAR(m.mean_queue_len, lambda * wq, 0.08 * lambda * wq);
}

TEST(QueueingTheory, Mm8LightLoadBarelyQueues) {
  // At rho = 0.4 with 8 servers Erlang-C predicts almost no waiting —
  // the differential test should see that too, not just heavy traffic.
  const double lambda = 3.2, mu = 1.0;
  const int c = 8;
  MmcMeasured m = run_mmc(lambda, mu, c, 60000, 10000, 11);
  const double wq = erlang_c(c, lambda / mu) / (c * mu - lambda);
  EXPECT_LT(wq, 0.01);              // the theory says ~0.0072 s
  EXPECT_NEAR(m.mean_wait, wq, 0.25 * wq + 1e-3);
  EXPECT_NEAR(m.mean_sojourn, wq + 1.0, 0.02 * (wq + 1.0));
}

TEST(QueueingTheory, LittlesLawHoldsOnTheKernel) {
  // L = lambda * W measured over the same window. Not exact here (the
  // window truncates jobs in flight at both edges) but tight at this
  // sample size; simulate_service asserts the exact identity.
  MmcMeasured m = run_mmc(0.8, 1.0, 1, 120000, 20000, 42);
  EXPECT_NEAR(m.mean_in_system, m.lambda * m.mean_sojourn, 0.02 * m.mean_in_system);
  MmcMeasured m4 = run_mmc(3.2, 1.0, 4, 120000, 20000, 7);
  EXPECT_NEAR(m4.mean_in_system, m4.lambda * m4.mean_sojourn, 0.02 * m4.mean_in_system);
}

TEST(QueueingTheory, ContendedSpineLinkIsMm1) {
  // The same differential question asked of the network fabric: a
  // single oversubscribed spine link fed Poisson flows with
  // exponential sizes IS an M/M/1 queue, so the measured waits must
  // reproduce Wq = rho/(mu - lambda).
  //
  // Setup: 2 racks x 1 node, ToR oversubscription 0 (non-blocking,
  // the layer drops out of the path) and NICs at 1e15 B/s so the
  // endpoint hops are nine orders of magnitude faster than the spine
  // — a flow's delivery time is exactly its spine finish time. The
  // spine oversubscription is picked so the spine serves 1e6 B/s:
  // total NIC 2e15 / 2e9 = 1e6. Flow sizes are svc * spine_rate with
  // svc ~ Exp(mu), i.e. service times are exponential by construction.
  const int kFlows = BVL_FABRIC_FLOWS;
  const int kWarmup = kFlows / 6;
  const double lambda = 0.8, mu = 1.0;
  Simulation sim;
  Topology topo = Topology::uniform(2, 1, /*spine_oversub=*/2e9, /*tor_oversub=*/0.0);
  Fabric fabric(sim, topo, {1e15, 1e15});
  ASSERT_TRUE(fabric.has_spine());
  const double rate = fabric.spine_rate();
  ASSERT_NEAR(rate, 1e6, 1.0);

  Pcg32 arr(9, 0xa), size(9, 0xb);
  std::vector<Seconds> sent(static_cast<std::size_t>(kFlows)),
      svc(static_cast<std::size_t>(kFlows)), done(static_cast<std::size_t>(kFlows));
  int spawned = 0;
  std::function<void(Seconds)> arrive = [&](Seconds t) {
    sim.at(t, [&, t] {
      int j = spawned++;
      sent[static_cast<std::size_t>(j)] = t;
      svc[static_cast<std::size_t>(j)] = size.exponential(mu);
      fabric.send(0, 1, svc[static_cast<std::size_t>(j)] * rate,
                  [&, j] { done[static_cast<std::size_t>(j)] = sim.now(); });
      if (spawned < kFlows) arrive(t + arr.exponential(lambda));
    });
  };
  arrive(arr.exponential(lambda));
  sim.run();

  double wait = 0, sojourn = 0;
  for (int j = kWarmup; j < kFlows; ++j) {
    wait += done[static_cast<std::size_t>(j)] - sent[static_cast<std::size_t>(j)] -
            svc[static_cast<std::size_t>(j)];
    sojourn += done[static_cast<std::size_t>(j)] - sent[static_cast<std::size_t>(j)];
  }
  const int n = kFlows - kWarmup;
  wait /= n;
  sojourn /= n;
  const double wq = lambda / mu / (mu - lambda);  // 4 s at rho = 0.8
  EXPECT_NEAR(wait, wq, 0.08 * wq);
  EXPECT_NEAR(sojourn, wq + 1.0 / mu, 0.08 * (wq + 1.0 / mu));

  // The ledger balances at stress scale: every flow crossed the spine
  // and arrived, and the link was busy for rho of the clock.
  FabricStats st = fabric.stats();
  EXPECT_EQ(st.flows, static_cast<std::uint64_t>(kFlows));
  EXPECT_EQ(st.bytes_injected, st.bytes_delivered);
  EXPECT_EQ(st.cross_rack_bytes, st.bytes_injected);
  double total_svc = 0;
  for (int j = 0; j < kFlows; ++j) total_svc += svc[static_cast<std::size_t>(j)];
  EXPECT_NEAR(st.spine_busy_s, total_svc, 1e-9 * total_svc);
  EXPECT_NEAR(st.spine_busy_s / sim.now(), lambda / mu, 0.03 * lambda / mu);
}

TEST(QueueingTheory, P2SketchTracksExactQuantilesOnExponential) {
  // The latency columns of the service report come from the P² sketch;
  // pin it against exact sample quantiles on a heavy-ish tail.
  Pcg32 rng(123, 5);
  P2Quantile p50(0.50), p95(0.95), p99(0.99);
  std::vector<double> all;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double x = rng.exponential(1.0);
    p50.add(x);
    p95.add(x);
    p99.add(x);
    all.push_back(x);
  }
  std::sort(all.begin(), all.end());
  auto exact = [&](double p) { return all[static_cast<std::size_t>(p * (n - 1))]; };
  EXPECT_NEAR(p50.value(), exact(0.50), 0.03 * exact(0.50));
  EXPECT_NEAR(p95.value(), exact(0.95), 0.03 * exact(0.95));
  EXPECT_NEAR(p99.value(), exact(0.99), 0.05 * exact(0.99));
  // And against the distribution's true quantiles ln(1/(1-p)).
  EXPECT_NEAR(p50.value(), std::log(2.0), 0.05 * std::log(2.0));
  EXPECT_NEAR(p99.value(), std::log(100.0), 0.05 * std::log(100.0));
}

TEST(QueueingTheory, LatencySketchReportsMonotoneQuantilesWhereP2EstimatesCross) {
  // A bounded stream with a near-flat top: the independent p95 and p99
  // P² estimators settle with p95 a hair above p99.
  P2Quantile raw50(0.50), raw95(0.95), raw99(0.99);
  LatencySketch sketch;
  for (int i = 0; i < 30; ++i) {
    double x = static_cast<double>((i * 7919) % 101);
    raw50.add(x);
    raw95.add(x);
    raw99.add(x);
    sketch.add(x);
  }
  ASSERT_GT(raw95.value(), raw99.value());
  EXPECT_LE(sketch.p50(), sketch.p95());
  EXPECT_LE(sketch.p95(), sketch.p99());
  EXPECT_LE(sketch.p99(), sketch.max());
  // Rearranged, not invented: the reported set is the estimated set.
  EXPECT_EQ(sketch.p50(), raw50.value());
  EXPECT_EQ(sketch.p95(), raw99.value());
  EXPECT_EQ(sketch.p99(), raw95.value());
}

}  // namespace
}  // namespace bvl::sim
