// Self-tests of the benchmark itself (awesim_perfbench --self-test):
//   * one seed always yields byte-identical inputs -- netlist text,
//     designs and request log -- and another seed yields other inputs;
//   * every correctness check counts a perturbed result as failed;
//   * the metric catalogue matches BENCHMARK.json name for name.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "inputs.h"
#include "obs/json.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace json = awesim::obs::json;

int g_failed = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failed;
}

std::string request_log_text(const awesim::timing::Design& design,
                             std::uint64_t seed) {
  std::string out;
  for (unsigned c = 0; c < 4; ++c) {
    RequestLog log(design, seed, c);
    for (int i = 0; i < 2000; ++i) out += log.next().line + "\n";
  }
  return out;
}

void test_determinism(std::uint64_t seed) {
  const std::string s = std::to_string(seed);
  const std::string netlist = cold_netlist(seed);
  expect(netlist == cold_netlist(seed),
         "cold_signoff netlist text is byte-identical for seed " + s);
  expect(netlist != cold_netlist(seed + 1),
         "cold_signoff netlist text differs for seed " + s + "+1");

  const std::string hier =
      design_text(awesim::reduce::mega_design(hier_spec(seed)));
  expect(hier == design_text(awesim::reduce::mega_design(hier_spec(seed))),
         "hier_mesh_1M design is byte-identical for seed " + s);

  const awesim::timing::Design serve = serve_design(seed);
  const std::string serve_text = design_text(serve);
  expect(serve_text == design_text(serve_design(seed)),
         "serve_whatif design is byte-identical for seed " + s);
  const std::string log = request_log_text(serve, seed);
  expect(log == request_log_text(serve_design(seed), seed),
         "serve_whatif request log is byte-identical for seed " + s);
  expect(log != request_log_text(serve_design(seed + 1), seed + 1),
         "serve_whatif request log differs for seed " + s + "+1");
}

/// A report carrying the anchor stages at their reference values.
awesim::timing::TimingReport anchor_report(const std::string& bench_dir) {
  std::ifstream in(bench_dir + "/reference.json");
  std::stringstream buf;
  buf << in.rdbuf();
  const json::Value ref = json::parse(buf.str());
  awesim::timing::TimingReport report;
  for (const auto& [net, sinks] : ref.find("stages")->items()) {
    awesim::timing::StageTiming stage;
    stage.net = net;
    for (const auto& [gate, pair] : sinks.items()) {
      stage.sinks.push_back(
          {gate, pair.at(0).as_number(), pair.at(1).as_number(), 0.0});
    }
    report.stages.push_back(stage);
  }
  return report;
}

void test_perturbation(const RunConfig& config) {
  awesim::timing::AnalysisOptions options;
  options.threads = 1;
  const awesim::timing::TimingReport base =
      serve_design(config.seed).analyze(options);
  expect(compare_reports(base, base, 0.0).empty(),
         "an unperturbed report passes the bit-equality check");

  awesim::timing::TimingReport off_by_ulp = base;
  off_by_ulp.stages[7].sinks[0].stage_delay *= 1.0 + 1e-15;
  Results cold;
  cold.attempt(compare_reports(base, off_by_ulp, 0.0).empty());
  expect(cold.failed() == 1,
         "cold_signoff: a delay perturbed by 1e-15 (relative) fails the "
         "serial-equality check");

  awesim::timing::TimingReport drifted = base;
  drifted.stages[3].sinks[0].stage_delay += 2e-9;
  Results hier;
  hier.attempt(compare_reports(base, drifted, 1e-9).empty());
  expect(hier.failed() == 1,
         "hier_mesh_1M / serve_whatif: a 2e-9 s drift fails the 1e-9 s "
         "check");
  drifted.stages[3].sinks[0].stage_delay -= 1.5e-9;
  expect(compare_reports(base, drifted, 1e-9).empty(),
         "a 0.5e-9 s drift passes the 1e-9 s check");

  awesim::timing::TimingReport anchors = anchor_report(config.bench_dir);
  expect(check_anchors(anchors, config.bench_dir).empty(),
         "the stored anchor values pass the reference check");
  anchors.stages[0].sinks[0].stage_delay *= 1.0 + 1e-5;
  Results ref;
  ref.attempt(check_anchors(anchors, config.bench_dir).empty(), "anchor");
  expect(ref.failed() == 1,
         "cold_signoff: an anchor delay perturbed by 1e-5 (relative) fails "
         "the reference check");

  expect(check_serve_response(
             "stats", R"({"id":1,"ok":true,"generation":0,"result":{}})")
             .empty(),
         "a successful stats response passes");
  expect(!check_serve_response(
              "set_value",
              R"({"id":1,"ok":false,"error":{"code":"invalid-request"}})")
              .empty(),
         "serve_whatif: an ok:false response fails");
  expect(!check_serve_response(
              "worst_paths",
              R"({"id":1,"ok":true,"generation":3,"result":{"paths":[],"truncated":false}})")
              .empty(),
         "serve_whatif: a short worst_paths list fails");
  expect(!check_serve_response("analyze", "{\"id\":1,\"ok\":tr").empty(),
         "serve_whatif: a truncated response fails");
}

void test_catalogue(const RunConfig& config) {
  std::ifstream in(config.bench_dir + "/../BENCHMARK.json");
  std::stringstream buf;
  buf << in.rdbuf();
  const json::Value bench = json::parse(buf.str());
  std::string listed;
  for (const char* key : {"end_to_end", "per_layer"}) {
    const json::Value& list = *bench.find(key);
    for (std::size_t i = 0; i < list.size(); ++i) {
      listed += std::string(key) + " " + list.at(i).find("name")->as_string() +
                " " + list.at(i).find("unit")->as_string() + "\n";
    }
  }
  std::string catalogue;
  for (const bool e2e : {true, false}) {
    for (const MetricDef& def : metric_catalogue()) {
      if (def.end_to_end != e2e) continue;
      catalogue += std::string(e2e ? "end_to_end " : "per_layer ") +
                   def.name + " " + def.unit + "\n";
    }
  }
  expect(listed == catalogue,
         "BENCHMARK.json lists exactly the metrics the benchmark reports");
}

}  // namespace

int run_self_test(const RunConfig& config) {
  test_determinism(config.seed);
  test_perturbation(config);
  test_catalogue(config);
  std::printf("%s: %d failed\n", g_failed == 0 ? "OK" : "FAILED", g_failed);
  return g_failed;
}

}  // namespace perfbench
