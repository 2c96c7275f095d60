// cold_signoff: netlist text in memory -> audit::parse_design ->
// audit::audit_design -> timing::Design::analyze -> TimingGraph::build
// -> k_worst_paths(k=1000), with no stage cache anywhere.  Each
// repetition is one sign-off of the same text; the checks compare every
// report with a serial (threads=1) analysis and pin the anchor stages to
// reference.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "audit/audit.h"
#include "audit/design_netlist.h"
#include "inputs.h"
#include "obs/json.h"
#include "timing/graph.h"
#include "timing/paths.h"
#include "workloads.h"

namespace perfbench {

namespace {

using awesim::timing::TimingReport;

constexpr std::size_t kPaths = 1000;

struct Signoff {
  double parse_s = 0.0;
  double audit_s = 0.0;
  double analyze_s = 0.0;
  double graph_s = 0.0;
  double paths_s = 0.0;
  double total_s = 0.0;
  TimingReport report;
  std::string error;
};

Signoff signoff(const std::string& text, int threads) {
  Signoff s;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t = t0;
  const auto lap = [&t] {
    const double d = seconds_since(t);
    t = Clock::now();
    return d;
  };
  awesim::audit::DesignParse parsed =
      awesim::audit::parse_design(text, "cold_signoff.net");
  s.parse_s = lap();
  if (!parsed.design.has_value()) {
    s.error = "parse_design rejected the netlist";
    return s;
  }
  const awesim::audit::AuditReport audit =
      awesim::audit::audit_design(*parsed.design, {}, &parsed.sources);
  s.audit_s = lap();
  if (!audit.ok()) {
    s.error = "audit_design found " + std::to_string(audit.errors) + " errors";
    return s;
  }
  awesim::timing::AnalysisOptions options;
  options.threads = threads;
  s.report = parsed.design->analyze(options);
  s.analyze_s = lap();
  const awesim::timing::TimingGraph graph =
      awesim::timing::TimingGraph::build(s.report);
  s.graph_s = lap();
  awesim::timing::PathQuery query;
  query.k = kPaths;
  const awesim::timing::PathsResult paths =
      awesim::timing::k_worst_paths(graph, query);
  s.paths_s = lap();
  s.total_s = seconds_since(t0);
  if (s.report.failed_stages > 0) {
    s.error = std::to_string(s.report.failed_stages) + " stages failed";
  } else if (paths.paths.size() != kPaths || paths.truncated) {
    s.error = "k_worst_paths returned " + std::to_string(paths.paths.size()) +
              " paths";
  }
  return s;
}

}  // namespace

std::string compare_reports(const TimingReport& want, const TimingReport& got,
                            double tolerance_s) {
  const auto differs = [tolerance_s](double a, double b) {
    return tolerance_s == 0.0 ? a != b : !(std::abs(a - b) <= tolerance_s);
  };
  if (want.stages.size() != got.stages.size()) return "stage count differs";
  for (std::size_t i = 0; i < want.stages.size(); ++i) {
    const auto& a = want.stages[i];
    const auto& b = got.stages[i];
    if (a.net != b.net || a.sinks.size() != b.sinks.size()) {
      return "stage " + std::to_string(i) + " differs in shape";
    }
    for (std::size_t k = 0; k < a.sinks.size(); ++k) {
      const auto& x = a.sinks[k];
      const auto& y = b.sinks[k];
      if (x.gate != y.gate || differs(x.stage_delay, y.stage_delay) ||
          differs(x.slew, y.slew) || differs(x.arrival, y.arrival)) {
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "net %s sink %s: delay %.17g vs %.17g", a.net.c_str(),
                      x.gate.c_str(), x.stage_delay, y.stage_delay);
        return buf;
      }
    }
  }
  if (differs(want.critical_delay, got.critical_delay) ||
      want.critical_path != got.critical_path) {
    return "critical path differs";
  }
  return {};
}

void record_report(Results& r, const TimingReport& report) {
  const awesim::core::Stats& st = report.awe_stats;
  const double stages =
      static_cast<double>(std::max<std::uint64_t>(st.stages, 1));
  r.set("timing.stages", static_cast<double>(st.stages));
  r.set("timing.levels", static_cast<double>(report.levels));
  r.set("timing.degraded_stages", static_cast<double>(report.degraded_stages));
  r.set("timing.failed_stages", static_cast<double>(report.failed_stages));
  r.set("core.factorizations_per_stage",
        static_cast<double>(st.factorizations) / stages);
  r.set("core.substitutions_per_stage",
        static_cast<double>(st.substitutions) / stages);
  r.set("core.matches", static_cast<double>(st.matches));
  r.set("core.setup_s", st.seconds_setup);
  r.set("core.moments_s", st.seconds_moments);
  r.set("core.match_s", st.seconds_match);
}

std::string check_anchors(const TimingReport& report,
                          const std::string& bench_dir) {
  namespace json = awesim::obs::json;
  std::ifstream in(bench_dir + "/reference.json");
  if (!in) return "cannot read " + bench_dir + "/reference.json";
  std::stringstream buf;
  buf << in.rdbuf();
  const json::Value ref = json::parse(buf.str());
  const double tol = ref.find("tolerance_rel")->as_number();
  const json::Value* stages = ref.find("stages");
  std::string actual;  // full-precision values, to (re)generate the file
  std::string error;
  for (const char* net : kAnchorNets) {
    const json::Value* want = stages != nullptr ? stages->find(net) : nullptr;
    for (const auto& st : report.stages) {
      if (st.net != net) continue;
      for (const auto& sink : st.sinks) {
        char line[160];
        std::snprintf(line, sizeof line, " %s/%s=[%.17g, %.17g]", net,
                      sink.gate.c_str(), sink.stage_delay, sink.slew);
        actual += line;
        const json::Value* pair =
            want != nullptr ? want->find(sink.gate) : nullptr;
        if (pair == nullptr) {
          error = "reference.json has no anchor " + std::string(net) + "/" +
                  sink.gate;
          continue;
        }
        const double d = pair->at(0).as_number();
        const double s = pair->at(1).as_number();
        if (!(std::abs(sink.stage_delay - d) <= tol * std::abs(d)) ||
            !(std::abs(sink.slew - s) <= tol * std::abs(s))) {
          error = "anchor " + std::string(net) + "/" + sink.gate +
                  " outside tolerance";
        }
      }
    }
  }
  if (actual.empty()) return "anchor stages missing from the report";
  return error.empty() ? error : error + "; measured" + actual;
}

void run_cold_signoff(const RunConfig& config, Results& r) {
  std::vector<double> setup;
  std::string text;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const Clock::time_point t0 = Clock::now();
    text = cold_netlist(config.seed);
    setup.push_back(seconds_since(t0));
  }
  r.set("setup_s", median(setup));
  r.note("cold_signoff: netlist " + std::to_string(text.size()) +
         " bytes, setup " + describe(setup, "s"));

  // Reference for the checks: a serial analysis of the same text.
  const Signoff serial = signoff(text, 1);
  r.attempt(serial.error.empty(), "serial reference: " + serial.error);
  const std::string anchors = check_anchors(serial.report, config.bench_dir);
  r.attempt(anchors.empty(), "reference.json: " + anchors);

  // Two analysis threads, not one per vCPU: the tree half still runs its
  // wavefronts in parallel, and the mesh half's one-stage wavefronts wait
  // on fewer workers when the host takes a vCPU away.
  const unsigned threads = std::min(config.threads, 2u);
  r.note("cold_signoff: analyze on " + std::to_string(threads) + " threads");
  std::vector<Signoff> plain;
  std::vector<Signoff> traced;
  measure_loop(config.seconds, config.trace, 2, [&](bool is_traced) {
    Signoff s = signoff(text, static_cast<int>(threads));
    std::string why = s.error;
    if (why.empty()) why = compare_reports(serial.report, s.report, 0.0);
    r.attempt(why.empty(), "sign-off: " + why);
    s.report.stages.clear();  // keep only the counters
    (is_traced ? traced : plain).push_back(std::move(s));
  });
  std::vector<double> plain_totals;
  for (const Signoff& s : plain) plain_totals.push_back(s.total_s);
  r.set("report_s", median(plain_totals));
  r.set("qps", 1.0 / mean(plain_totals));
  r.note("cold_signoff: report_s " + describe(plain_totals, "s"));

  if (config.trace) {
    const double n = static_cast<double>(traced.size());
    const auto avg = [&](double Signoff::*field) {
      double sum = 0.0;
      for (const Signoff& s : traced) sum += s.*field;
      return sum / n;
    };
    const double total = avg(&Signoff::total_s);
    r.set("traced.report_s", total);
    r.set("trace.overhead_ratio", total / mean(plain_totals));
    r.set("audit.parse_design_s", avg(&Signoff::parse_s));
    r.set("audit.audit_design_s", avg(&Signoff::audit_s));
    r.set("timing.analyze_s", avg(&Signoff::analyze_s));
    r.set("timing.graph_build_s", avg(&Signoff::graph_s));
    r.set("timing.k_worst_paths_s", avg(&Signoff::paths_s));
    r.set("unattributed_s",
          total - avg(&Signoff::parse_s) - avg(&Signoff::audit_s) -
              avg(&Signoff::analyze_s) - avg(&Signoff::graph_s) -
              avg(&Signoff::paths_s));
    double walk = 0.0;
    for (const Signoff& s : traced) walk += s.report.wall_seconds;
    r.set("timing.walk_s", walk / n);
    record_report(r, traced.back().report);
    record_spans(r, awesim::obs::snapshot(), n);
  }
  r.set("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench
