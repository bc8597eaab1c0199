#include "checks.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cmath>
#include <cstdint>
#include <map>
#include <numbers>
#include <string_view>
#include <utility>

namespace perfbench::checks {

using bvl::mr::KV;

namespace {

std::string fmt(const char* f, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

/// Whitespace tokenizer written for the checks (space, tab, CR, LF).
template <typename Fn>
void tokens(std::string_view s, Fn&& fn) {
  auto ws = [](char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; };
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && ws(s[i])) ++i;
    std::size_t b = i;
    while (i < s.size() && !ws(s[i])) ++i;
    if (i > b) fn(s.substr(b, i - b));
  }
}

bool parse_count(std::string_view s, long long& v) {
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  return ec == std::errc() && p == s.data() + s.size();
}

/// Compares a reference tally against "<token> -> <count>" output
/// records; one failure line per kind of disagreement.
void compare_tally(const char* what, const std::map<std::string, long long>& ref,
                   const std::vector<KV>& output, Failures& out) {
  std::map<std::string, long long> got;
  for (const KV& kv : output) {
    long long v = 0;
    if (!parse_count(kv.value, v)) {
      out.push_back(std::string(what) + ": unparsable count '" + kv.value + "'");
      return;
    }
    if (!got.emplace(kv.key, v).second) {
      out.push_back(std::string(what) + ": key emitted twice: '" + kv.key + "'");
      return;
    }
  }
  if (got.size() != ref.size()) {
    out.push_back(std::string(what) + ": " + std::to_string(got.size()) +
                  " keys, reference tally has " + std::to_string(ref.size()));
    return;
  }
  for (const auto& [k, v] : ref) {
    auto it = got.find(k);
    if (it == got.end() || it->second != v) {
      out.push_back(std::string(what) + ": count for '" + k + "' is " +
                    (it == got.end() ? std::string("missing") : std::to_string(it->second)) +
                    ", reference tally " + std::to_string(v));
      return;
    }
  }
}

bool rel_eq(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max({1.0, std::abs(a), std::abs(b)});
}

}  // namespace

void trace_structure(const bvl::core::RunSpec& spec, const bvl::mr::JobTrace& t, Failures& out) {
  const std::string tag = bvl::wl::short_name(spec.workload) + " in=" +
                          std::to_string(spec.input_size >> 20) + "MB blk=" +
                          std::to_string(spec.block_size >> 20) + "MB: ";
  const std::uint64_t want_maps = (spec.input_size + spec.block_size - 1) / spec.block_size;
  if (t.num_map_tasks() != want_maps) {
    out.push_back(tag + "map tasks " + std::to_string(t.num_map_tasks()) + " != ceil(input/block) " +
                  std::to_string(want_maps));
  }
  std::uint64_t bytes = 0;
  for (const auto& m : t.map_tasks) bytes += m.logical_bytes;
  if (bytes != spec.input_size) {
    out.push_back(tag + "map logical bytes " + std::to_string(bytes) + " != input " +
                  std::to_string(spec.input_size));
  }
  const bool sort = spec.workload == bvl::wl::WorkloadId::kSort;
  const bool terasort = spec.workload == bvl::wl::WorkloadId::kTeraSort;
  if (!sort && !terasort) return;
  for (std::size_t i = 0; i < t.map_tasks.size(); ++i) {
    const auto& c = t.map_tasks[i].counters;
    // Sort is map-only: its map output is the job output. TeraSort's
    // map output goes to the shuffle, counted as emits.
    const double produced = sort ? c.output_records : c.emits;
    if (!rel_eq(produced, c.input_records, 1e-12)) {
      out.push_back(tag + fmt("map task records in %.17g, out %.17g", c.input_records, produced));
      return;
    }
  }
}

void wordcount_output(const std::vector<std::string>& lines, const std::vector<KV>& output,
                      Failures& out) {
  std::map<std::string, long long> ref;
  for (const auto& l : lines) tokens(l, [&](std::string_view tok) { ++ref[std::string(tok)]; });
  compare_tally("WC output", ref, output, out);
}

void grep_output(const std::string& pattern, const std::vector<std::string>& lines,
                 const std::vector<KV>& output, Failures& out) {
  std::map<std::string, long long> ref;
  for (const auto& l : lines) {
    tokens(l, [&](std::string_view tok) {
      if (tok.find(pattern) != std::string_view::npos) ++ref[std::string(tok)];
    });
  }
  compare_tally("GP output", ref, output, out);
}

void sorted_permutation(const std::vector<KV>& input, const std::vector<KV>& output,
                        const std::vector<std::size_t>& segments, Failures& out) {
  if (output.size() != input.size()) {
    out.push_back(fmt("sort output has %.0f records, input %.0f",
                      static_cast<double>(output.size()), static_cast<double>(input.size())));
    return;
  }
  std::size_t covered = 0;
  for (std::size_t n : segments) covered += n;
  if (covered != output.size()) {
    out.push_back(fmt("sort segments cover %.0f of %.0f records", static_cast<double>(covered),
                      static_cast<double>(output.size())));
    return;
  }
  std::size_t pos = 0;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    for (std::size_t i = pos + 1; i < pos + segments[s]; ++i) {
      if (output[i].key < output[i - 1].key) {
        out.push_back("sort output out of order in segment " + std::to_string(s) + " at record " +
                      std::to_string(i));
        return;
      }
    }
    pos += segments[s];
  }
  auto pairs = [](const std::vector<KV>& v) {
    std::vector<std::pair<std::string_view, std::string_view>> p;
    p.reserve(v.size());
    for (const KV& kv : v) p.emplace_back(kv.key, kv.value);
    std::sort(p.begin(), p.end());
    return p;
  };
  if (pairs(input) != pairs(output)) out.push_back("sort output is not a permutation of its input");
}

void fp_support(const std::vector<std::string>& transactions, const std::vector<KV>& output,
                Failures& out) {
  std::vector<std::vector<std::uint32_t>> tx;
  std::map<std::uint32_t, std::vector<std::uint32_t>> holders;  // item -> transaction ids
  tx.reserve(transactions.size());
  for (const auto& line : transactions) {
    std::vector<std::uint32_t> items;
    tokens(line, [&](std::string_view tok) {
      long long v = 0;
      if (parse_count(tok, v) && v >= 0) items.push_back(static_cast<std::uint32_t>(v));
    });
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    for (auto it : items) holders[it].push_back(static_cast<std::uint32_t>(tx.size()));
    tx.push_back(std::move(items));
  }
  for (const KV& kv : output) {
    const std::size_t colon = kv.key.find(':');
    long long support = 0;
    if (colon == std::string::npos || !parse_count(kv.value, support)) {
      out.push_back("FP output record malformed: '" + kv.key + "' -> '" + kv.value + "'");
      return;
    }
    std::vector<std::uint32_t> items;
    bool ok = true;
    tokens(std::string_view(kv.key).substr(colon + 1), [&](std::string_view tok) {
      long long v = 0;
      if (parse_count(tok, v) && v >= 0) items.push_back(static_cast<std::uint32_t>(v));
      else ok = false;
    });
    if (!ok || items.empty()) {
      out.push_back("FP pattern has no parsable items: '" + kv.key + "'");
      return;
    }
    // Walk the transactions holding the pattern's rarest item.
    const std::vector<std::uint32_t>* rarest = nullptr;
    for (auto it : items) {
      auto h = holders.find(it);
      if (h == holders.end()) {
        rarest = nullptr;
        break;
      }
      if (rarest == nullptr || h->second.size() < rarest->size()) rarest = &h->second;
    }
    long long brute = 0;
    if (rarest != nullptr) {
      for (auto id : *rarest) {
        const auto& t = tx[id];
        bool all = std::all_of(items.begin(), items.end(),
                               [&](std::uint32_t i) { return std::binary_search(t.begin(), t.end(), i); });
        brute += all ? 1 : 0;
      }
    }
    if (support > brute) {
      out.push_back("FP pattern '" + kv.key + "' support " + std::to_string(support) +
                    " exceeds brute-force support " + std::to_string(brute));
      return;
    }
  }
}

void fabric_ledger(const bvl::sim::FabricStats& f, Failures& out) {
  const double parts = f.local_bytes + f.intra_rack_bytes + f.cross_rack_bytes;
  if (!rel_eq(f.bytes_injected, f.bytes_delivered, 1e-9) ||
      !rel_eq(f.bytes_injected, parts, 1e-9)) {
    out.push_back(fmt("fabric ledger: injected %.17g, delivered/parts differ (parts %.17g)",
                      f.bytes_injected, parts));
  }
  double links = 0;
  for (double b : f.spine_link_bytes) links += b;
  if (!rel_eq(links, f.cross_rack_bytes, 1e-9)) {
    out.push_back(fmt("fabric ledger: spine links carry %.17g, cross-rack bytes %.17g", links,
                      f.cross_rack_bytes));
  }
}

void mix_result(const std::vector<bvl::core::JobRequest>& jobs, const bvl::core::MixResult& r,
                const MixExpectation& e, Failures& out) {
  using JobKey = std::pair<int, bvl::Bytes>;
  auto key = [](const bvl::core::JobRequest& j) {
    return JobKey{static_cast<int>(j.workload), j.input_size};
  };
  std::vector<JobKey> want, got;
  for (const auto& j : jobs) want.push_back(key(j));
  for (const auto& s : r.schedule) got.push_back(key(s.job));
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  if (want != got) {
    out.push_back(fmt("mix: %.0f jobs submitted, schedule lists %.0f (or a different set)",
                      static_cast<double>(jobs.size()), static_cast<double>(r.schedule.size())));
  }
  for (const auto& s : r.schedule) {
    if (!(0 <= s.start && s.start <= s.finish && s.finish <= r.makespan * (1 + 1e-12))) {
      out.push_back(fmt("mix: job interval [%.17g, %.17g] outside the makespan", s.start, s.finish));
      break;
    }
  }
  double tasks = 0;
  for (const auto& n : r.nodes) tasks += n.tasks_run;
  if (tasks != e.total_tasks) {
    out.push_back(fmt("mix: nodes ran %.0f tasks, traces hold %.0f", tasks, e.total_tasks));
  }
  const double floor_s = e.min_slot_work_s / std::max(1, e.total_slots);
  if (!(r.makespan >= floor_s * (1 - 1e-9))) {
    out.push_back(fmt("mix: makespan %.17g below the slot-work floor %.17g", r.makespan, floor_s));
  }
  if (r.fabric.modeled) fabric_ledger(r.fabric, out);
  if (r.power.active && r.power.cap_exceeded) out.push_back("mix: power cap exceeded");
}

double expected_arrivals(double rate, double amplitude, double period, double peak_at,
                         double horizon) {
  const double w = 2 * std::numbers::pi / period;
  return rate * (horizon + amplitude / w * (std::sin(w * (horizon - peak_at)) - std::sin(-w * peak_at)));
}

void service_result(const bvl::core::ServiceResult& r, const bvl::core::ServiceOptions& opts,
                    Failures& out) {
  const double scale = std::max({1.0, r.little_l, r.little_lambda_w});
  if (!(std::abs(r.little_l - r.little_lambda_w) <= 1e-6 * scale)) {
    out.push_back(fmt("service: Little's law L=%.17g vs lambda*W=%.17g", r.little_l,
                      r.little_lambda_w));
  }
  const double n = expected_arrivals(opts.arrival_rate, opts.diurnal.amplitude,
                                     opts.diurnal.period, opts.diurnal.peak_at, opts.horizon);
  if (!(std::abs(r.arrivals - n) <= 4 * std::sqrt(n))) {
    out.push_back(fmt("service: %.0f arrivals, integrated rate expects %.1f (4 sigma)",
                      static_cast<double>(r.arrivals), n));
  }
  if (r.measured_jobs > r.arrivals) out.push_back("service: more measured jobs than arrivals");
  auto ordered = [&](const char* what, const bvl::core::LatencySummary& s) {
    // p95 <= p99 is counted by quantile_inversions() instead: the
    // per-quantile P² sketches cross there on some seeds.
    if (!(0 <= s.p50 && s.p50 <= s.p95 && s.p50 <= s.p99 && s.p95 <= s.max && s.p99 <= s.max &&
          s.mean <= s.max)) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    " quantiles out of order: p50 %.17g p95 %.17g p99 %.17g max %.17g mean %.17g",
                    s.p50, s.p95, s.p99, s.max, s.mean);
      out.push_back(std::string("service: ") + what + buf);
    }
  };
  ordered("sojourn", r.sojourn);
  ordered("queue delay", r.queue_delay);
}

int quantile_inversions(const bvl::core::ServiceResult& r) {
  return (r.sojourn.p95 > r.sojourn.p99 ? 1 : 0) + (r.queue_delay.p95 > r.queue_delay.p99 ? 1 : 0);
}

}  // namespace perfbench::checks
