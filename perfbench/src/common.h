// Shared pieces of the benchmark binary: run configuration, sample
// statistics, the metric catalogue every workload reports against, and
// span post-processing.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Each run sets its workload up this many times and reports the
/// median as setup_s.
inline constexpr int kSetupRepeats = 7;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding reference.json (the benchmark's own directory).
  std::string bench_dir = "perfbench";
  /// Threads and connections the load may use: min(4, nproc).
  unsigned threads = 1;
};

/// Linear-interpolated percentile, p in [0, 1].  NaN for no samples.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

/// The highest of p50/p90/p99/p99.9 that has at least ten samples
/// beyond it (0 when even p50 has fewer), as a fraction.
double tail_fraction(std::size_t n);

/// "n=.. p50=.. p99=.." rendering with the tail chosen by tail_fraction.
std::string describe(const std::vector<double>& samples,
                     const std::string& unit);

/// Process peak resident set size, MB (ru_maxrss).
double peak_rss_mb();

/// Results of one run.  Every workload fills the same catalogue of
/// end-to-end and per-layer metrics (see metric_catalogue); metrics a
/// workload does not exercise stay 0.
class Results {
 public:
  Results();

  void set(const std::string& name, double value);
  double get(const std::string& name) const;

  /// One operation (or correctness check) attempted; `ok == false`
  /// counts it failed, with `why` kept for the report.
  void attempt(bool ok, const std::string& why = {});

  /// A human-readable line printed before the JSON result.
  void note(std::string line) { notes_.push_back(std::move(line)); }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct MetricDef {
  std::string name;
  std::string unit;
  bool end_to_end = false;
};

/// Every metric the benchmark reports, in print order.  BENCHMARK.json
/// lists the same names and units (the self-test checks it).
const std::vector<MetricDef>& metric_catalogue();

/// Span post-processing for the traced run: per span name, the count
/// and the self time (its total minus the totals of the spans known to
/// nest directly inside it), both divided by `ops`.  Times are summed
/// across threads, so they are thread-seconds.
void record_spans(Results& results, const awesim::obs::PhaseBreakdown& spans,
                  double ops);

/// Calls `op(traced)` until `seconds` have passed and each side has run
/// at least `min_each` times.  Without `alternate` every call is
/// untraced.  With it, calls alternate untraced / traced, the obs spans
/// switched on only for the traced ones (and reset first), so both
/// sides see the same machine conditions and their gap is the tracing
/// overhead.
template <class Op>
void measure_loop(double seconds, bool alternate, std::size_t min_each,
                  Op op) {
  if (alternate) awesim::obs::reset_phases();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced = alternate && i % 2 == 1;
    const std::size_t done = alternate ? i / 2 : i;
    if (done >= min_each && seconds_since(t0) >= seconds && !traced) break;
    awesim::obs::set_tracing(traced);
    op(traced);
    awesim::obs::set_tracing(false);
  }
}

/// Splitmix64: derives independent sub-seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
