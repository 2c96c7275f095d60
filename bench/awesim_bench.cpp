// The unified benchmark runner.
//
//   awesim_bench                 run the full tier, human table only
//   awesim_bench --quick         the CI tier (fewer repeats, big cases
//                                skipped)
//   awesim_bench --json[=path]   additionally write BENCH_results.json
//                                (schema-validated before exiting 0)
//   awesim_bench --list          print the registered cases and exit
//   awesim_bench --filter=sub    run only cases whose name contains sub
//   awesim_bench --repeats=N     override the tier's repeat count
//
// Exits nonzero when any case's accuracy is non-finite or above the
// bound the case declares (after writing the JSON, so the failing run
// still leaves its numbers behind).
//
// Tracing is force-enabled for the run so every result carries the
// phase breakdown; the timed workloads therefore pay the (mutexed
// accumulate) tracing cost uniformly, which is what makes phase shares
// comparable across benches.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "cases.h"
#include "harness.h"
#include "obs/json.h"
#include "obs/trace.h"

using namespace awesim;

namespace {

struct CliOptions {
  bench::RunOptions run;
  bool list = false;
  bool json = false;
  std::string json_path = "BENCH_results.json";
  std::string filter;
};

bool parse_args(int argc, char** argv, CliOptions* cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      cli->run.quick = true;
    } else if (arg == "--list") {
      cli->list = true;
    } else if (arg == "--json") {
      cli->json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      cli->json = true;
      cli->json_path = arg.substr(7);
    } else if (arg.rfind("--filter=", 0) == 0) {
      cli->filter = arg.substr(9);
    } else if (arg.rfind("--repeats=", 0) == 0) {
      cli->run.repeats = std::atoi(arg.c_str() + 10);
      if (cli->run.repeats <= 0) {
        std::fprintf(stderr, "awesim_bench: bad --repeats value '%s'\n",
                     arg.c_str() + 10);
        return false;
      }
    } else {
      std::fprintf(stderr, "awesim_bench: unknown flag '%s'\n",
                   arg.c_str());
      return false;
    }
  }
  return true;
}

std::string bound_str(const std::optional<double>& bound) {
  if (!bound) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3e", *bound);
  return buf;
}

const char* gate_str(const bench::BenchResult& r) {
  if (!r.accuracy_bound) return "-";
  return bench::within_bound(r) ? "ok" : "FAIL";
}

void print_results(const std::vector<bench::BenchResult>& results) {
  std::printf("%-26s %-22s %8s %10s %10s %12s %12s %12s %5s  %s\n",
              "bench", "paper_ref", "size", "wall_ms", "min_ms", "speedup",
              "accuracy", "bound", "gate", "metric");
  for (const auto& r : results) {
    const double speedup = bench::speedup_vs_sim(r);
    char speedup_str[32];
    if (std::isfinite(speedup)) {
      std::snprintf(speedup_str, sizeof speedup_str, "%.1fx", speedup);
    } else {
      std::snprintf(speedup_str, sizeof speedup_str, "-");
    }
    char acc_str[32];
    if (std::isfinite(r.accuracy)) {
      std::snprintf(acc_str, sizeof acc_str, "%.3e", r.accuracy);
    } else {
      std::snprintf(acc_str, sizeof acc_str, "-");
    }
    std::printf("%-26s %-22s %8zu %10.3f %10.3f %12s %12s %12s %5s  %s\n",
                r.name.c_str(), r.paper_ref.c_str(), r.problem_size,
                bench::median_of(r.wall_ms), bench::min_of(r.wall_ms),
                speedup_str, acc_str, bound_str(r.accuracy_bound).c_str(),
                gate_str(r),
                r.accuracy_metric.empty() ? "-"
                                          : r.accuracy_metric.c_str());
  }
}

void print_phase_totals(const std::vector<bench::BenchResult>& results) {
  obs::PhaseBreakdown merged;
  for (const auto& r : results) obs::merge_into(merged, r.phases);
  if (merged.empty()) return;
  std::printf("\naggregate phase breakdown (timed AWE windows only):\n");
  std::printf("  %-18s %10s %12s %12s %12s\n", "phase", "count",
              "total_ms", "min_us", "max_us");
  for (const auto& p : merged) {
    std::printf("  %-18s %10llu %12.3f %12.3f %12.3f\n", p.name.c_str(),
                static_cast<unsigned long long>(p.stats.count),
                p.stats.total_seconds * 1e3, p.stats.min_seconds * 1e6,
                p.stats.max_seconds * 1e6);
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_args(argc, argv, &cli)) return 2;

  bench::ensure_all_registered();

  if (cli.list) {
    for (const auto& c : bench::registry()) {
      std::printf("%-26s %-22s size=%zu bound=%s%s\n", c.name.c_str(),
                  c.paper_ref.c_str(), c.problem_size,
                  bound_str(c.accuracy_bound).c_str(),
                  c.quick_tier ? "" : "  [full tier only]");
    }
    return 0;
  }

  // Every result carries the phase breakdown.
  obs::set_tracing(true);

  std::vector<bench::BenchResult> results;
  for (const auto& c : bench::registry()) {
    if (cli.run.quick && !c.quick_tier) continue;
    if (!cli.filter.empty() &&
        c.name.find(cli.filter) == std::string::npos) {
      continue;
    }
    std::printf("running %-26s ...\n", c.name.c_str());
    std::fflush(stdout);
    results.push_back(bench::run_case(c, cli.run));
  }
  if (results.empty()) {
    std::fprintf(stderr, "awesim_bench: no cases matched\n");
    return 1;
  }

  std::printf("\n");
  print_results(results);
  print_phase_totals(results);

  // Coverage floor (skipped for filtered runs, which are exploratory):
  // the results file must cover the figure reproductions and at least
  // one speedup-vs-simulation measurement to be a useful trajectory
  // point.
  if (cli.filter.empty()) {
    bool has_speedup = false;
    for (const auto& r : results) {
      if (std::isfinite(bench::speedup_vs_sim(r))) has_speedup = true;
    }
    if (results.size() < 6 || !has_speedup) {
      std::fprintf(stderr,
                   "awesim_bench: coverage floor violated (%zu benches, "
                   "speedup_vs_sim %s)\n",
                   results.size(), has_speedup ? "present" : "missing");
      return 1;
    }
  }

  if (cli.json) {
    const obs::json::Value doc = bench::to_json(results, cli.run);
    const std::string text = doc.dump(2);
    {
      std::ofstream out(cli.json_path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "awesim_bench: cannot write '%s'\n",
                     cli.json_path.c_str());
        return 1;
      }
      out << text << "\n";
    }
    // Self-check: re-parse the emitted bytes and validate the schema,
    // so a writer regression fails the run instead of shipping an
    // unreadable artifact.
    std::vector<std::string> errors;
    try {
      errors = bench::validate_schema(obs::json::parse(text));
    } catch (const std::exception& e) {
      errors.push_back(std::string("re-parse failed: ") + e.what());
    }
    if (!errors.empty()) {
      for (const auto& e : errors) {
        std::fprintf(stderr, "awesim_bench: schema error: %s\n",
                     e.c_str());
      }
      return 1;
    }
    std::printf("\nwrote %s (%zu benches, schema v%d, validated)\n",
                cli.json_path.c_str(), results.size(),
                bench::kSchemaVersion);
  }

  int violated = 0;
  for (const auto& r : results) {
    if (bench::within_bound(r)) continue;
    ++violated;
    std::fprintf(stderr,
                 "awesim_bench: %s accuracy %.6e violates its bound %.6e "
                 "(%s)\n",
                 r.name.c_str(), r.accuracy, *r.accuracy_bound,
                 r.accuracy_metric.c_str());
  }
  return violated == 0 ? 0 : 1;
}
