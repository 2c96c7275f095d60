// Scaling and amortization cases of the unified runner:
//
//   * speedup.rc_line_*: the Section I "1000x faster than simulation"
//     claim on uniform RC lines -- AWE q=3 vs the fixed-step transient
//     reference, accuracy = 50% delay disagreement; extra times the
//     Section IV O(n) tree-walk Elmore path (no factorization at all);
//   * batch.multisink32: one Engine::approximate_all over a 32-sink
//     comb net (accuracy = worst waveform deviation vs the per-output
//     pipelines, bitwise 0; extra = the per-output cost and the LU /
//     substitution counts of both);
//   * timing.wavefront: the levelized parallel timing analyzer
//     (accuracy = critical-delay deviation vs the serial walk,
//     bitwise 0; extra = the serial walk's time and the speedup).
//
// Wall-time ratios ride in extra and are never gated: the host moves
// +-20-30% run to run.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cases.h"
#include "circuit/circuit.h"
#include "circuits/paper_circuits.h"
#include "core/engine.h"
#include "harness.h"
#include "rctree/rctree.h"
#include "timing/analyzer.h"

namespace awesim::bench {

namespace {

struct LineState {
  circuit::Circuit ckt;
  circuit::NodeId out;
  double horizon = 0.0;
  std::optional<double> delay_awe;
  std::optional<double> delay_sim;
};

BenchCase rc_line_case(std::size_t sections, bool quick_tier) {
  BenchCase c;
  c.name = "speedup.rc_line_" + std::to_string(sections);
  c.paper_ref = "Section I";
  c.accuracy_metric = "delay50_rel_err_vs_sim";
  c.accuracy_bound = 1.4e-5;  // 2x the larger measured (6.8e-6 at 1000)
  c.problem_size = sections;
  c.quick_tier = quick_tier;
  c.prepare = [sections] {
    auto state = std::make_shared<LineState>();
    const double r_total = 1e3 * static_cast<double>(sections);
    const double c_total = 1e-12 * static_cast<double>(sections);
    state->ckt = circuits::rc_line(sections, r_total, c_total);
    state->out = state->ckt.find_node("n" + std::to_string(sections));
    // Elmore delay of the uniform line is ~RC/2; 4x the full RC product
    // comfortably covers the 50% crossing and the settling tail.
    state->horizon = 4.0 * r_total * c_total;
    PreparedCase p;
    p.run = [state] {
      core::Engine engine(state->ckt);
      const auto r = engine.approximate(state->out, bare_options(3));
      state->delay_awe =
          r.approximation.first_crossing(2.5, 0.0, state->horizon);
    };
    p.reference = [state] {
      state->delay_sim =
          simulate(state->ckt, state->out, state->horizon).first_crossing(2.5);
    };
    p.extra = [state] {
      const auto tree = rctree::extract(state->ckt);
      const double elmore_ms = median_of(time_samples_ms(
          [&] { (void)rctree::elmore_delays(*tree); }, 25));
      const double nan = std::numeric_limits<double>::quiet_NaN();
      return Extras{
          {"elmore_treewalk_ms", elmore_ms},
          {"delay50_awe_s", state->delay_awe.value_or(nan)},
          {"delay50_sim_s", state->delay_sim.value_or(nan)}};
    };
    p.accuracy = [state]() -> double {
      if (!state->delay_awe || !state->delay_sim ||
          *state->delay_sim == 0.0) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      return std::abs(*state->delay_awe - *state->delay_sim) /
             *state->delay_sim;
    };
    return p;
  };
  return c;
}

constexpr std::size_t kSinks = 32;

// A 32-sink interconnect comb: a resistive spine with one RC branch and
// one loaded sink tap per section -- the multi-sink net shape a clock or
// high-fanout signal distribution produces.
circuit::Circuit comb_net(std::vector<circuit::NodeId>& sinks) {
  circuit::Circuit ckt;
  const auto vin = ckt.node("in");
  ckt.add_vsource("Vdrv", vin, circuit::kGround,
                  circuit::Stimulus::ramp_step(0.0, 5.0, 0.1e-9));
  auto spine = ckt.node("s0");
  ckt.add_resistor("Rdrv", vin, spine, 200.0);
  for (std::size_t i = 0; i < kSinks; ++i) {
    const std::string tag = std::to_string(i);
    const auto next = ckt.node("s" + std::to_string(i + 1));
    ckt.add_resistor("Rs" + tag, spine, next, 40.0);
    ckt.add_capacitor("Cs" + tag, next, circuit::kGround, 8e-15);
    const auto sink = ckt.node("t" + tag);
    ckt.add_resistor("Rt" + tag, next, sink, 120.0);
    ckt.add_capacitor("Ct" + tag, sink, circuit::kGround, 12e-15);
    sinks.push_back(sink);
    spine = next;
  }
  return ckt;
}

struct BatchState {
  circuit::Circuit ckt;
  std::vector<circuit::NodeId> sinks;
  std::vector<core::Result> batch;
  core::Stats batch_stats;

  /// What a caller without the batch API pays: a fresh pipeline (LU,
  /// particular solutions, moment recursion) per sink.
  std::vector<core::Result> per_output(core::Stats* stats) const {
    std::vector<core::Result> results;
    for (const auto sink : sinks) {
      core::Engine engine(ckt);
      results.push_back(engine.approximate(sink, bare_options(3)));
      *stats += engine.stats();
    }
    return results;
  }
};

BenchCase batch_case() {
  BenchCase c;
  c.name = "batch.multisink32";
  c.paper_ref = "Fig. 19 (amortization)";
  c.accuracy_metric = "max_abs_dev_vs_peroutput_V";
  c.accuracy_bound = 0.0;  // bitwise identity
  c.problem_size = kSinks;
  c.prepare = [] {
    auto state = std::make_shared<BatchState>();
    state->ckt = comb_net(state->sinks);
    PreparedCase p;
    p.run = [state] {
      core::Engine engine(state->ckt);
      auto batch = engine.approximate_all(state->sinks, bare_options(3));
      state->batch = std::move(batch.results);
      state->batch_stats = batch.stats;
    };
    p.accuracy = [state] {
      // Per-output pipelines must reproduce the batch bitwise.
      core::Stats unused;
      const auto singles = state->per_output(&unused);
      double max_dev = 0.0;
      for (std::size_t i = 0; i < singles.size(); ++i) {
        for (int k = 0; k <= 50; ++k) {
          const double t = 2e-9 * k / 50.0;
          max_dev = std::max(
              max_dev,
              std::abs(singles[i].approximation.value(t) -
                       state->batch[i].approximation.value(t)));
        }
      }
      return max_dev;
    };
    p.extra = [state] {
      core::Stats per_output_stats;
      (void)state->per_output(&per_output_stats);
      const double per_output_ms = median_of(time_samples_ms(
          [&] {
            core::Stats stats;
            (void)state->per_output(&stats);
          },
          9));
      const double batch_ms = median_of(time_samples_ms(
          [&] {
            core::Engine engine(state->ckt);
            (void)engine.approximate_all(state->sinks, bare_options(3));
          },
          9));
      return Extras{
          {"peroutput_ms", per_output_ms},
          {"speedup_vs_peroutput", per_output_ms / batch_ms},
          {"batch_factorizations",
           static_cast<double>(state->batch_stats.factorizations)},
          {"batch_substitutions",
           static_cast<double>(state->batch_stats.substitutions)},
          {"peroutput_factorizations",
           static_cast<double>(per_output_stats.factorizations)},
          {"peroutput_substitutions",
           static_cast<double>(per_output_stats.substitutions)}};
    };
    return p;
  };
  return c;
}

// A wide gate-level design: `chains` parallel 4-stage chains fanning
// out of one root driver, so every wavefront past the first holds
// `chains` independent stages.
timing::Design wide_design(std::size_t chains) {
  timing::Design d;
  d.add_gate({"root", 500.0, 4e-15, 0.0});
  d.set_primary_input("root");
  timing::Net fan;
  fan.name = "fanout";
  fan.parasitics = {{timing::NetElement::Kind::Resistor, "DRV", "h", 150.0},
                    {timing::NetElement::Kind::Capacitor, "h", "0", 20e-15}};
  for (std::size_t c = 0; c < chains; ++c) {
    fan.sink_node["g" + std::to_string(c) + "_0"] = "h";
  }
  for (std::size_t c = 0; c < chains; ++c) {
    for (int s = 0; s < 4; ++s) {
      const std::string name =
          "g" + std::to_string(c) + "_" + std::to_string(s);
      d.add_gate({name, 800.0 + 60.0 * static_cast<double>(c), 5e-15,
                  5e-12});
      if (s > 0) {
        timing::Net net;
        net.name = name + "_in";
        net.parasitics = {
            {timing::NetElement::Kind::Resistor, "DRV", "w",
             300.0 + 25.0 * static_cast<double>(s)},
            {timing::NetElement::Kind::Capacitor, "w", "0", 30e-15}};
        net.sink_node[name] = "w";
        d.add_net("g" + std::to_string(c) + "_" + std::to_string(s - 1),
                  net);
      }
    }
  }
  d.add_net("root", fan);
  return d;
}

struct WavefrontState {
  timing::Design design;
  timing::TimingReport parallel;
  timing::TimingReport serial;

  WavefrontState() : design(wide_design(8)) {}
};

BenchCase wavefront_case() {
  BenchCase c;
  c.name = "timing.wavefront";
  c.paper_ref = "timing analyzer";
  c.accuracy_metric = "critical_delay_abs_dev_vs_serial_s";
  c.accuracy_bound = 0.0;  // bitwise identity
  c.problem_size = 8 * 4 + 1;  // gates in wide_design(8)
  c.prepare = [] {
    auto state = std::make_shared<WavefrontState>();
    PreparedCase p;
    p.run = [state] {
      timing::AnalysisOptions opt;
      opt.threads = 0;  // hardware concurrency
      state->parallel = state->design.analyze(opt);
    };
    p.accuracy = [state] {
      timing::AnalysisOptions opt;
      opt.threads = 1;
      state->serial = state->design.analyze(opt);
      return std::abs(state->serial.critical_delay -
                      state->parallel.critical_delay);
    };
    p.extra = [state] {
      const bool identical =
          state->serial.gate_arrival == state->parallel.gate_arrival &&
          state->serial.critical_path == state->parallel.critical_path;
      timing::AnalysisOptions opt;
      opt.threads = 1;
      const double serial_ms = median_of(
          time_samples_ms([&] { (void)state->design.analyze(opt); }, 5));
      opt.threads = 0;
      const double parallel_ms = median_of(
          time_samples_ms([&] { (void)state->design.analyze(opt); }, 5));
      return Extras{
          {"reports_identical", identical ? 1.0 : 0.0},
          {"serial_ms", serial_ms},
          {"parallel_speedup", serial_ms / parallel_ms},
          {"stages", static_cast<double>(state->parallel.stages.size())},
          {"levels", static_cast<double>(state->parallel.levels)}};
    };
    return p;
  };
  return c;
}

}  // namespace

void register_scaling_cases() {
  register_bench(rc_line_case(200, /*quick_tier=*/true));
  register_bench(rc_line_case(1000, /*quick_tier=*/false));
  register_bench(batch_case());
  register_bench(wavefront_case());
}

}  // namespace awesim::bench
