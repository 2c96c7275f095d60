// awesim_perfbench: the AWEsim end-to-end benchmark.
//
//   awesim_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--bench-dir DIR] [--commit SHA] [--source-digest SHA]
//   awesim_perfbench --self-test [--bench-dir DIR]
//
// Prints human-readable lines starting with '#' (provenance, sample
// counts and percentiles, every metric by name with its unit, failures),
// then, as the last line, one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  With --trace 0 the metrics are the end-to-end
// ones, measured with tracing off; with --trace 1 they are the per-layer
// ones, from a run whose second half has the obs spans switched on.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"
#include "obs/json.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace json = awesim::obs::json;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "awesim_perfbench: " << why
            << "\nusage: awesim_perfbench --workload "
               "cold_signoff|hier_mesh_1M|serve_whatif --seed N --seconds S "
               "--trace 0|1 [--bench-dir DIR] [--commit SHA] "
               "[--source-digest SHA]\n       awesim_perfbench --self-test\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string commit = "unknown";
  std::string digest = "unknown";
  bool self_test = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else if (arg == "--bench-dir") {
        config.bench_dir = value;
      } else if (arg == "--commit") {
        commit = value;
      } else if (arg == "--source-digest") {
        digest = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  config.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  if (self_test) {
    try {
      return run_self_test(config) == 0 ? 0 : 1;
    } catch (const std::exception& e) {
      std::cerr << "awesim_perfbench: self-test aborted: " << e.what() << "\n";
      return 1;
    }
  }
  if (!have_seed || !(config.seconds > 0.0)) usage("need --seed and --seconds");

  void (*workload)(const RunConfig&, Results&) = nullptr;
  if (config.workload == "cold_signoff") workload = run_cold_signoff;
  if (config.workload == "hier_mesh_1M") workload = run_hier_mesh;
  if (config.workload == "serve_whatif") workload = run_serve_whatif;
  if (workload == nullptr) usage("unknown workload '" + config.workload + "'");

  json::Value provenance = json::Value::object();
  provenance.set("commit", commit);
  provenance.set("source_digest", digest);
  provenance.set("build_type", PERFBENCH_BUILD_TYPE);
  provenance.set("tracing_compiled_in", awesim::obs::tracing_compiled_in());
  provenance.set("fault_injection_compiled_in", AWESIM_FAULT_INJECTION != 0);
  provenance.set("cpu_model", cpu_model());
  provenance.set("nproc",
                 static_cast<unsigned long long>(
                     std::thread::hardware_concurrency()));
  provenance.set("threads", static_cast<unsigned long long>(config.threads));
  provenance.set("workload", config.workload);
  provenance.set("seed", std::to_string(config.seed));
  provenance.set("seconds", config.seconds);
  provenance.set("trace", config.trace);
  std::cout << "# provenance " << provenance.dump() << "\n" << std::flush;

  Results results;
  try {
    awesim::obs::set_tracing(false);
    workload(config, results);
  } catch (const std::exception& e) {
    std::cerr << "awesim_perfbench: " << config.workload
              << " aborted: " << e.what() << "\n";
    return 1;
  }

  for (const std::string& note : results.notes()) {
    std::cout << "# " << note << "\n";
  }
  json::Value metrics = json::Value::object();
  for (const MetricDef& def : metric_catalogue()) {
    if (def.end_to_end == config.trace) continue;
    const double value = results.get(def.name);
    char line[160];
    std::snprintf(line, sizeof line, "# %-5s %-36s %.9g %s",
                  def.end_to_end ? "e2e" : "layer", def.name.c_str(), value,
                  def.unit.c_str());
    std::cout << line << "\n";
    json::Value m = json::Value::object();
    m.set("value", value);
    m.set("unit", def.unit);
    metrics.set(def.name, std::move(m));
  }
  for (const std::string& why : results.failures()) {
    std::cout << "# FAILED " << why << "\n";
  }
  json::Value out = json::Value::object();
  out.set("correct", results.failed() == 0);
  out.set("attempted", static_cast<unsigned long long>(results.attempted()));
  out.set("failed", static_cast<unsigned long long>(results.failed()));
  out.set("metrics", std::move(metrics));
  std::cout << out.dump() << std::endl;
  return 0;
}
