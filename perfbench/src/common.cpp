#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] +
         (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

double mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (const double x : samples) sum += x;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

double tail_fraction(std::size_t n) {
  double best = 0.0;
  for (const double p : {0.5, 0.9, 0.99, 0.999}) {
    if (static_cast<double>(n) * (1.0 - p) >= 10.0) best = p;
  }
  return best;
}

std::string describe(const std::vector<double>& samples,
                     const std::string& unit) {
  if (samples.empty()) return "n=0";
  char buf[200];
  const double tail = tail_fraction(samples.size());
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  int len = std::snprintf(buf, sizeof buf, "n=%zu p50=%.6g %s", samples.size(),
                          median(samples), unit.c_str());
  if (tail > 0.5) {
    len += std::snprintf(buf + len, sizeof buf - len, " p%g=%.6g %s",
                         tail * 100, percentile(samples, tail), unit.c_str());
  } else {
    len += std::snprintf(buf + len, sizeof buf - len,
                         " (too few samples for a tail)");
  }
  std::snprintf(buf + len, sizeof buf - len, " min=%.6g max=%.6g", *lo, *hi);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

namespace {

// Spans of src/ in their known nesting: parallel.job wraps timing.stage,
// which wraps every engine phase and the per-stage lint.  session.* are
// leaf markers of the stage cache.
const std::vector<std::pair<std::string, std::string>>& span_parents() {
  static const std::vector<std::pair<std::string, std::string>> kSpans = {
      {"mna.factor", "timing.stage"},     {"engine.moments", "timing.stage"},
      {"pade.hankel", "timing.stage"},    {"pade.roots", "timing.stage"},
      {"engine.residues", "timing.stage"}, {"check.lint", "timing.stage"},
      {"timing.stage", "parallel.job"},   {"parallel.job", ""},
      {"session.reuse", ""},              {"session.invalidate", ""},
  };
  return kSpans;
}

std::vector<MetricDef> build_catalogue() {
  std::vector<MetricDef> m = {
      {"setup_s", "s", true},
      {"report_s", "s", true},
      {"peak_rss_mb", "MB", true},
      {"qps", "1/s", true},
      {"traced.report_s", "s"},
      {"unattributed_s", "s"},
      {"trace.overhead_ratio", "ratio"},
      {"audit.parse_design_s", "s"},
      {"audit.audit_design_s", "s"},
      {"timing.analyze_s", "s"},
      {"timing.walk_s", "s"},
      {"timing.graph_build_s", "s"},
      {"timing.k_worst_paths_s", "s"},
      {"timing.stages", "count"},
      {"timing.levels", "count"},
      {"timing.degraded_stages", "count"},
      {"timing.failed_stages", "count"},
      {"core.factorizations_per_stage", "count"},
      {"core.substitutions_per_stage", "count"},
      {"core.matches", "count"},
      {"core.setup_s", "thread-s"},
      {"core.moments_s", "thread-s"},
      {"core.match_s", "thread-s"},
  };
  for (const auto& [span, parent] : span_parents()) {
    m.push_back({"span." + span + ".count", "count"});
    m.push_back({"span." + span + ".self_s", "thread-s"});
  }
  const std::vector<MetricDef> rest = {
      {"pade.hankel_per_match", "ratio"},
      {"reduce.analyze_s", "s"},
      {"reduce.overhead_s", "s"},
      {"reduce.reductions_performed", "count"},
      {"reduce.cache_hit_ratio", "ratio"},
      {"reduce.macro_states", "count"},
      {"cache.hit_ratio", "ratio"},
      {"cache.stages_recomputed_per_write", "count"},
      {"cache.evictions", "count"},
      {"lowrank.points", "count"},
      {"lowrank.refactorizations", "count"},
      {"serve.read_p50_ms", "ms"},
      {"serve.read_p99_ms", "ms"},
      {"serve.write_p50_ms", "ms"},
      {"serve.write_p90_ms", "ms"},
      {"serve.sweep_p50_ms", "ms"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  for (const char* verb : {"analyze", "analyze_fresh", "worst_paths", "stats",
                           "set_value", "set_gate", "sweep"}) {
    m.push_back({std::string("serve.") + verb + ".p50_ms", "ms"});
    m.push_back({std::string("serve.") + verb + ".handle_ms", "ms"});
  }
  m.push_back({"serve.transport_queue_ms", "ms"});
  m.push_back({"serve.shed", "count"});
  m.push_back({"serve.responses_error", "count"});
  m.push_back({"serve.refused", "count"});
  return m;
}

}  // namespace

const std::vector<MetricDef>& metric_catalogue() {
  static const std::vector<MetricDef> kCatalogue = build_catalogue();
  return kCatalogue;
}

Results::Results() {
  for (const MetricDef& def : metric_catalogue()) {
    values_.emplace_back(def.name, 0.0);
  }
}

void Results::set(const std::string& name, double value) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  throw std::logic_error("perfbench: metric not in catalogue: " + name);
}

double Results::get(const std::string& name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) return v;
  }
  throw std::logic_error("perfbench: metric not in catalogue: " + name);
}

void Results::attempt(bool ok, const std::string& why) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(why);
}

void record_spans(Results& results, const awesim::obs::PhaseBreakdown& spans,
                  double ops) {
  std::map<std::string, awesim::obs::PhaseStats> by_name;
  for (const auto& s : spans) by_name[s.name] = s.stats;
  std::map<std::string, double> child_seconds;
  for (const auto& [span, parent] : span_parents()) {
    if (!parent.empty()) child_seconds[parent] += by_name[span].total_seconds;
  }
  for (const auto& [span, parent] : span_parents()) {
    const awesim::obs::PhaseStats& st = by_name[span];
    const double self =
        std::max(0.0, st.total_seconds - child_seconds[span]);
    results.set("span." + span + ".count",
                static_cast<double>(st.count) / ops);
    results.set("span." + span + ".self_s", self / ops);
  }
  const double matches =
      static_cast<double>(by_name["engine.residues"].count);
  results.set("pade.hankel_per_match",
              matches > 0 ? static_cast<double>(by_name["pade.hankel"].count) /
                                matches
                          : 0.0);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
