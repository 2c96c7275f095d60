// hier_mesh_1M: reduce::HierSession::analyze after clear_cache() on the
// 1M-node mesh (1000 nets x 1000 nodes, 8 repeated variants).  Each
// repetition is one cold hierarchical analysis; the check holds every
// stage delay within the documented 1e-9 s of the flat analyzer.
#include <algorithm>
#include <memory>

#include "inputs.h"
#include "reduce/hier.h"
#include "workloads.h"

namespace perfbench {

namespace {

using awesim::timing::TimingReport;

constexpr double kFlatToleranceS = 1e-9;

struct HierRun {
  double total_s = 0.0;    // clear_cache + analyze
  double analyze_s = 0.0;  // analyze alone
  double walk_s = 0.0;     // the inner walk's wall_seconds
  std::uint64_t reductions = 0;
  std::uint64_t reduction_hits = 0;
};

}  // namespace

void run_hier_mesh(const RunConfig& config, Results& r) {
  // One thread: the mesh cells sit on a gate chain, so each wavefront
  // holds one stage and more threads do not shorten the walk.  They only
  // add idle workers that expose the run to CPU steal on a shared host.
  awesim::timing::AnalysisOptions options;
  options.threads = 1;
  std::vector<double> setup;
  std::unique_ptr<awesim::reduce::HierSession> hier;
  for (int k = 0; k < kSetupRepeats; ++k) {
    hier.reset();
    const Clock::time_point t0 = Clock::now();
    hier = std::make_unique<awesim::reduce::HierSession>(
        awesim::reduce::mega_design(hier_spec(config.seed)), options);
    setup.push_back(seconds_since(t0));
  }
  r.set("setup_s", median(setup));
  r.note("hier_mesh_1M: setup " + describe(setup, "s"));

  const TimingReport flat = hier->design().analyze(options);
  r.attempt(flat.failed_stages == 0, "flat reference has failed stages");

  TimingReport last;
  std::vector<HierRun> plain;
  std::vector<HierRun> traced;
  measure_loop(config.seconds, config.trace, 3, [&](bool is_traced) {
    const awesim::reduce::HierSession::Stats before = hier->stats();
    HierRun run;
    const Clock::time_point start = Clock::now();
    hier->clear_cache();
    const Clock::time_point analyze_start = Clock::now();
    last = hier->analyze();
    run.analyze_s = seconds_since(analyze_start);
    run.total_s = seconds_since(start);
    run.walk_s = last.wall_seconds;
    const awesim::reduce::HierSession::Stats after = hier->stats();
    run.reductions = after.reductions_performed - before.reductions_performed;
    run.reduction_hits =
        after.reduction_cache_hits - before.reduction_cache_hits;
    const std::string why =
        last.failed_stages > 0
            ? std::to_string(last.failed_stages) + " stages failed"
            : compare_reports(flat, last, kFlatToleranceS);
    r.attempt(why.empty(), "hierarchical analysis vs flat: " + why);
    (is_traced ? traced : plain).push_back(run);
  });
  std::vector<double> plain_totals;
  for (const HierRun& h : plain) plain_totals.push_back(h.total_s);
  r.set("report_s", median(plain_totals));
  r.set("qps", 1.0 / mean(plain_totals));
  r.note("hier_mesh_1M: report_s " + describe(plain_totals, "s"));

  if (config.trace) {
    const double n = static_cast<double>(traced.size());
    const auto avg = [&](auto HierRun::*field) {
      double sum = 0.0;
      for (const HierRun& h : traced) sum += static_cast<double>(h.*field);
      return sum / n;
    };
    r.set("traced.report_s", avg(&HierRun::total_s));
    r.set("trace.overhead_ratio",
          avg(&HierRun::total_s) / mean(plain_totals));
    r.set("reduce.analyze_s", avg(&HierRun::analyze_s));
    r.set("timing.walk_s", avg(&HierRun::walk_s));
    r.set("reduce.overhead_s", avg(&HierRun::analyze_s) - avg(&HierRun::walk_s));
    r.set("unattributed_s", avg(&HierRun::total_s) - avg(&HierRun::analyze_s));
    const double reductions = avg(&HierRun::reductions);
    const double hits = avg(&HierRun::reduction_hits);
    r.set("reduce.reductions_performed", reductions);
    r.set("reduce.cache_hit_ratio",
          reductions + hits > 0 ? hits / (reductions + hits) : 0.0);
    r.set("reduce.macro_states",
          static_cast<double>(hier->stats().macro_states));
    record_report(r, last);
    record_spans(r, awesim::obs::snapshot(), n);
  }
  r.set("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench
