#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <ctime>

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

int Tracer::open(std::string name, std::string layer) {
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.parent = current_;
  s.round = round_;
  s.start = now_s();
  spans_.push_back(std::move(s));
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = now_s();
  current_ = s.parent;
}

double Tracer::total(const std::string& name, int round) const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.round == round && s.name == name) sum += s.end - s.start;
  }
  return sum;
}

double Tracer::top_level_total(int round) const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.round == round && s.parent < 0) sum += s.end - s.start;
  }
  return sum;
}

std::map<std::string, double> Tracer::self_time_by_layer(int round) const {
  // Children never overlap each other (spans nest strictly on one
  // thread), so the covered part of a span is the sum of its
  // children's durations.
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_cover[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.round != round) continue;
    out[s.layer] += std::max(0.0, (s.end - s.start) - child_cover[i]);
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"layer\": \"%s\", \"round\": %d, "
                 "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                 i, s.name.c_str(), s.layer.c_str(), s.round, s.parent, s.start - t0, s.end - t0,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
