// The three workloads and the correctness checks they share with the
// self-test.
#pragma once

#include <string>

#include "common.h"
#include "timing/analyzer.h"

namespace perfbench {

void run_cold_signoff(const RunConfig& config, Results& results);
void run_hier_mesh(const RunConfig& config, Results& results);
void run_serve_whatif(const RunConfig& config, Results& results);

/// Empty when `got` equals `want` in every timing value (stage list,
/// per-sink delay/slew/arrival, critical delay and path); otherwise the
/// first difference.  `tolerance_s` 0 demands bit equality.
std::string compare_reports(const awesim::timing::TimingReport& want,
                            const awesim::timing::TimingReport& got,
                            double tolerance_s);

/// The report-derived per-layer metrics: timing.stages/levels/
/// degraded_stages/failed_stages and the core.* cost counters.
void record_report(Results& results,
                   const awesim::timing::TimingReport& report);

/// Empty when the anchor stages of a cold sign-off report match
/// reference.json within its stated relative tolerance.
std::string check_anchors(const awesim::timing::TimingReport& report,
                          const std::string& bench_dir);

/// Empty when `line` is a successful, complete response to `verb` (the
/// per-request check of serve_whatif).
std::string check_serve_response(const std::string& verb,
                                 const std::string& line);

/// Runs the self-tests; returns the number of failed checks.
int run_self_test(const RunConfig& config);

}  // namespace perfbench
