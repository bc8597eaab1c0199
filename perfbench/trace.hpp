// In-memory span recorder for the benchmark's traced runs. Spans are
// opened and closed by the benchmark's own code around each call into
// a library layer (the library itself is not instrumented), kept in
// memory, and written out as JSON when the run ends.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed by the whole process (every thread).
double process_cpu_s();

struct Span {
  std::string name;   ///< e.g. "engine.WC", "replay.mix.fabric"
  std::string layer;  ///< library layer the call enters, e.g. "mapreduce"
  double start = 0;
  double end = 0;
  int parent = -1;    ///< index into Tracer::spans(), -1 = top level
  int round = 0;      ///< timed round (or -1 for probes) the span belongs to
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_round(int round) { round_ = round; }

  /// Opens a span under the innermost open span; returns its id, or
  /// -1 when tracing is off.
  int open(std::string name, std::string layer);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of the spans named `name` in `round`.
  double total(const std::string& name, int round) const;
  /// Summed duration of the top-level spans of `round`.
  double top_level_total(int round) const;
  /// Self time (duration minus the part covered by child spans),
  /// summed per layer over the spans of `round`.
  std::map<std::string, double> self_time_by_layer(int round) const;

  /// Writes every span as a JSON array of objects.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  int round_ = 0;
  int current_ = -1;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, std::string layer)
      : t_(t), id_(t.enabled() ? t.open(std::move(name), std::move(layer)) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) t_.close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int id_;
};

}  // namespace perfbench
