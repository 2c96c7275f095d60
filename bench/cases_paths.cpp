// Path-query cases of the unified runner -- the SFXT-style K-worst
// enumeration over the timing graph:
//
//   * paths.kworst_1000: the 1000 worst paths of a layered DAG with a
//     few hundred thousand distinct source-to-endpoint paths.  The
//     timed workload is TimingGraph::build plus the best-first search
//     (suffix bounds, lazy expansion); the reference is a fresh second
//     run, and accuracy is the max bitwise deviation between the two --
//     the determinism contract, measured rather than assumed.
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cases.h"
#include "harness.h"
#include "timing/graph.h"
#include "timing/paths.h"

namespace awesim::bench {

namespace {

// A layered stage DAG with dense fan-out, synthesized directly as a
// TimingReport (the path engine consumes reports; no circuit solves
// belong in this measurement).  Layer l gate g is "L<l>G<g>"; every
// gate drives three gates of the next layer, the last layer drives
// ports.  Delays are a deterministic arithmetic pattern -- distinct
// everywhere so path ordering is nontrivial.
timing::TimingReport layered_report(std::size_t layers, std::size_t width) {
  timing::TimingReport report;
  auto gate_name = [](std::size_t l, std::size_t g) {
    return "L" + std::to_string(l) + "G" + std::to_string(g);
  };
  for (std::size_t g = 0; g < width; ++g) {
    report.gate_arrival[gate_name(0, g)] = 0.0;
    report.source_gates.push_back(gate_name(0, g));
  }
  double tick = 1e-12;
  for (std::size_t l = 0; l + 1 < layers; ++l) {
    for (std::size_t g = 0; g < width; ++g) {
      timing::StageTiming stage;
      stage.driver_gate = gate_name(l, g);
      stage.net = "n_" + stage.driver_gate;
      for (std::size_t f = 0; f < 3; ++f) {
        timing::SinkTiming sink;
        sink.gate = gate_name(l + 1, (g + f) % width);
        sink.stage_delay = tick;
        tick += 1e-12;
        stage.sinks.push_back(sink);
      }
      report.stages.push_back(std::move(stage));
    }
  }
  for (std::size_t g = 0; g < width; ++g) {
    timing::StageTiming stage;
    stage.driver_gate = gate_name(layers - 1, g);
    stage.net = "n_out" + std::to_string(g);
    timing::SinkTiming sink;
    sink.gate = "PO" + std::to_string(g);
    sink.stage_delay = tick;
    tick += 1e-12;
    stage.sinks.push_back(sink);
    report.stages.push_back(std::move(stage));
  }
  // Forward-propagate arrivals so the report is self-consistent.  The
  // stages were emitted in layer order, so one in-order pass settles
  // every gate (ports are not gates and get no map entry -- the graph
  // computes their arrivals itself).
  for (std::size_t l = 1; l < layers; ++l) {
    for (std::size_t g = 0; g < width; ++g) {
      report.gate_arrival[gate_name(l, g)] = 0.0;
    }
  }
  for (const timing::StageTiming& stage : report.stages) {
    for (const timing::SinkTiming& sink : stage.sinks) {
      const auto to = report.gate_arrival.find(sink.gate);
      if (to == report.gate_arrival.end()) continue;  // port sink
      to->second =
          std::max(to->second,
                   report.gate_arrival.at(stage.driver_gate) +
                       sink.stage_delay);
    }
  }
  return report;
}

struct PathsState {
  timing::TimingReport report;
  timing::PathQuery query;
  timing::PathsResult run_result;
  timing::PathsResult ref_result;
};

BenchCase kworst_case() {
  constexpr std::size_t kPaths = 1000;
  BenchCase bc;
  bc.name = "paths.kworst_" + std::to_string(kPaths);
  bc.paper_ref = "Section II (timing analysis)";
  bc.accuracy_metric = "arrival_abs_dev_rerun_s";
  bc.accuracy_bound = 0.0;  // reruns are bit-identical
  bc.problem_size = kPaths;
  bc.prepare = [] {
    auto state = std::make_shared<PathsState>();
    state->report = layered_report(/*layers=*/12, /*width=*/16);
    state->query.k = kPaths;
    PreparedCase p;
    p.run = [state] {
      const timing::TimingGraph graph =
          timing::TimingGraph::build(state->report);
      state->run_result = timing::k_worst_paths(graph, state->query);
    };
    p.reference = [state] {
      const timing::TimingGraph graph =
          timing::TimingGraph::build(state->report);
      state->ref_result = timing::k_worst_paths(graph, state->query);
    };
    p.accuracy = [state]() -> double {
      const auto& a = state->run_result.paths;
      const auto& b = state->ref_result.paths;
      if (a.size() != kPaths || b.size() != kPaths) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      double max_dev = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        max_dev =
            std::max(max_dev, std::abs(a[i].arrival - b[i].arrival));
        if (a[i].arcs != b[i].arcs) {
          return std::numeric_limits<double>::quiet_NaN();
        }
      }
      return max_dev;
    };
    return p;
  };
  return bc;
}

}  // namespace

void register_paths_cases() { register_bench(kworst_case()); }

}  // namespace awesim::bench
