// The machine-readable benchmark harness behind `awesim_bench`.
//
// This header is the single home for the timing logic plus the
// registration interface the unified runner consumes.  A bench registers
// one BenchCase (name, paper reference, problem size, accuracy bound, and
// a prepare() closure); the harness owns the protocol:
//
//   prepare -> one warmup rep (AWE side and, when present, the
//   sim::transient reference) -> obs::reset_phases() -> N timed AWE
//   repetitions -> phase snapshot -> N timed reference repetitions ->
//   one accuracy evaluation.
//
// Every case that measures an accuracy declares an upper bound on it;
// within_bound() is the gate the runner and `ctest -L paper` apply, so a
// reproduced table or figure that drifts fails instead of printing.
//
// Results serialize to the schema-versioned BENCH_results.json
// (kSchemaName / kSchemaVersion below); validate_schema() is the same
// checker the runner applies to its own output before exiting 0, so a
// schema drift fails CI instead of silently shipping unreadable numbers.
#pragma once

#include <chrono>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"

namespace awesim::bench {

inline constexpr const char* kSchemaName = "awesim-bench-results";
/// v2: every bench carries an `extra` object of named scalar metrics
/// (may be empty) -- service benches report qps / latency percentiles,
/// sweep benches report stage-cache reuse and eviction counts.
/// v3: every bench carries `accuracy_bound` next to `accuracy` -- a
/// finite number when the bench names an accuracy metric, else null.
inline constexpr int kSchemaVersion = 3;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall time of one call of `fn`, in milliseconds.
template <typename F>
double time_once_ms(F&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0) * 1e3;
}

/// All `repeats` run times after `warmup` untimed calls, in milliseconds
/// and in run order.
template <typename F>
std::vector<double> time_samples_ms(F&& fn, int repeats, int warmup = 1) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(std::max(repeats, 0)));
  for (int i = 0; i < repeats; ++i) {
    samples.push_back(time_once_ms(fn));
  }
  return samples;
}

/// Median of the samples (NaN when empty).
double median_of(std::vector<double> samples);

/// Minimum of the samples (NaN when empty).
double min_of(const std::vector<double>& samples);

/// Named scalar metrics, in emit order.
using Extras = std::vector<std::pair<std::string, double>>;

/// What one registered bench hands the harness after setup: the timed
/// workload plus optional baseline and accuracy closures.  The closures
/// may share state (e.g. the last computed approximation feeding the
/// accuracy metric).
struct PreparedCase {
  /// One timed repetition of the AWE-side workload.  Required.
  std::function<void()> run;
  /// One timed repetition of the sim::transient reference for the same
  /// problem.  Optional; when absent the result carries no speedup.
  std::function<void()> reference;
  /// Evaluated once after the timed repetitions.  Optional.
  std::function<double()> accuracy;
  /// Case-specific named scalar metrics (qps, p99 latency, cache
  /// evictions), evaluated once after the timed repetitions and
  /// serialized into the result's `extra` object.  Optional.
  std::function<Extras()> extra;
};

struct BenchCase {
  /// Stable machine name, e.g. "fig15.secondorder_step".
  std::string name;
  /// Which part of the paper this regenerates, e.g. "Fig. 15".
  std::string paper_ref;
  /// What `accuracy` measures, e.g. "rel_l2_vs_sim".  Empty when the
  /// case has no accuracy closure.
  std::string accuracy_metric;
  /// Upper bound on `accuracy` (every metric is lower-is-better).
  /// Required, finite and >= 0 exactly when accuracy_metric is set;
  /// register_bench rejects any other combination.
  std::optional<double> accuracy_bound;
  /// Characteristic size (circuit nodes, sinks, stages).
  std::size_t problem_size = 0;
  /// Included in the --quick tier (CI).  Leave true unless the case is
  /// too slow for a per-commit run.
  bool quick_tier = true;
  /// Builds the circuit/design and returns the closures.  Called once
  /// per run_case.
  std::function<PreparedCase()> prepare;
};

struct RunOptions {
  bool quick = false;
  /// 0 = tier default (3 quick, 7 full).
  int repeats = 0;
};

struct BenchResult {
  std::string name;
  std::string paper_ref;
  std::string accuracy_metric;
  std::size_t problem_size = 0;
  int repeats = 0;
  /// Per-repetition wall time of the AWE workload, run order.
  std::vector<double> wall_ms;
  /// Per-repetition wall time of the reference simulation; empty when
  /// the case registered none.
  std::vector<double> sim_ms;
  /// NaN when the case registered no accuracy closure.
  double accuracy = std::numeric_limits<double>::quiet_NaN();
  std::optional<double> accuracy_bound;
  /// Phase breakdown of the timed AWE window (true window extrema: the
  /// harness resets the registry before the timed repetitions).
  obs::PhaseBreakdown phases;
  /// Named scalar metrics from the case's extra closure, in emit order
  /// (schema v2: always serialized, possibly empty; non-finite values
  /// become null).
  Extras extra;
};

/// Register a case.  Call from the register_*_cases() functions -- the
/// harness is a static library, so static-initializer registration
/// would be dropped by the linker.
void register_bench(BenchCase c);

const std::vector<BenchCase>& registry();

/// Run one case under the protocol described at the top of this header.
BenchResult run_case(const BenchCase& c, const RunOptions& options);

/// The accuracy gate: true when the case declares no bound, or when its
/// accuracy is finite and at most the bound.  A NaN accuracy fails
/// closed.
bool within_bound(const BenchResult& r);

/// median(sim) / median(wall); NaN when the case has no reference.
double speedup_vs_sim(const BenchResult& r);

/// Serialize to the BENCH_results.json schema.
obs::json::Value to_json(const std::vector<BenchResult>& results,
                         const RunOptions& options);

/// Validate a parsed results document against the schema.  Returns one
/// human-readable message per violation; empty means valid.
std::vector<std::string> validate_schema(const obs::json::Value& doc);

}  // namespace awesim::bench
