// The waveform-figure cases of the unified runner.  Each one times the
// AWE pipeline (fresh Engine + approximate) on one paper circuit against
// the fixed-step transient reference and gates the normalized L2
// waveform error (or, where the paper's point is a failure, the count of
// checks that no longer see it) against a declared bound.  Every further
// number the figure quotes -- error estimates, poles, delays, peaks --
// rides along in `extra`.
//
// Bounds: the measured value times a 2x headroom, unless a comment says
// otherwise; EXPERIMENTS.md lists each one next to the paper's figure.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cases.h"
#include "core/diagnostic.h"
#include "harness.h"

namespace awesim::bench {

namespace {

/// The raw configuration of the Figs. 20/21 instability study: no
/// degradation ladder and no lint pre-flight.
core::EngineOptions raw_options(int order) {
  core::EngineOptions opt = bare_options(order);
  opt.degrade = false;
  opt.preflight_lint = false;
  return opt;
}

/// Default options at order q: computes the eq. 39 error estimate.
core::EngineOptions estimating_options(int order) {
  core::EngineOptions opt;
  opt.order = order;
  return opt;
}

struct FigureState {
  circuit::Circuit ckt;
  circuit::NodeId out;
  double horizon = 0.0;
  core::EngineOptions eopt;
  core::Result last;
  waveform::Waveform reference;

  core::Result approximate(const core::EngineOptions& opt) const {
    core::Engine engine(ckt);
    return engine.approximate(out, opt);
  }
  /// Normalized L2 error of `a` against the reference over the horizon.
  double rel_l2(const core::Approximation& a) const {
    return a.sample(0.0, horizon, 2001).relative_error_vs(reference);
  }
};

struct FigureSpec {
  std::string name;
  std::string paper_ref;
  std::function<circuit::Circuit()> make;
  std::string out_node;
  double horizon = 0.0;
  /// The timed configuration.
  core::EngineOptions options;
  std::string accuracy_metric = "rel_l2_vs_sim";
  double bound = 0.0;
  /// The gated number; defaults to the rel-L2 error of the timed result.
  std::function<double(const FigureState&)> accuracy;
  /// Further metrics, evaluated after the accuracy.  Optional.
  std::function<Extras(const FigureState&)> extra;
};

BenchCase figure_case(FigureSpec spec) {
  BenchCase c;
  c.name = spec.name;
  c.paper_ref = spec.paper_ref;
  c.accuracy_metric = spec.accuracy_metric;
  c.accuracy_bound = spec.bound;
  c.problem_size = spec.make().node_count();
  c.prepare = [spec = std::move(spec)] {
    auto state = std::make_shared<FigureState>();
    state->ckt = spec.make();
    state->out = state->ckt.find_node(spec.out_node);
    state->horizon = spec.horizon;
    state->eopt = spec.options;
    PreparedCase p;
    p.run = [state] { state->last = state->approximate(state->eopt); };
    p.reference = [state] {
      state->reference = simulate(state->ckt, state->out, state->horizon);
    };
    p.accuracy = [state, accuracy = spec.accuracy] {
      return accuracy ? accuracy(*state)
                      : state->rel_l2(state->last.approximation);
    };
    if (spec.extra) {
      p.extra = [state, extra = spec.extra] { return extra(*state); };
    }
    return p;
  };
  return c;
}

/// Real parts of the first active atom's poles, slowest first.
std::vector<double> pole_reals(const core::Result& r) {
  std::vector<double> re;
  for (const auto& atom : r.approximation.atoms()) {
    for (const auto& t : atom.terms) re.push_back(t.pole.real());
    if (!atom.terms.empty()) break;
  }
  std::sort(re.begin(), re.end(),
            [](double a, double b) { return std::abs(a) < std::abs(b); });
  return re;
}

/// Deepest fall below the running maximum: the nonmonotone dip.
double dip_depth(const waveform::Waveform& w) {
  double running_max = -INFINITY;
  double dip = 0.0;
  for (double v : w.values()) {
    running_max = std::max(running_max, v);
    dip = std::max(dip, running_max - v);
  }
  return dip;
}

/// Most negative value in the first tenth of the Fig. 14 ramp: the
/// initial-slope glitch that m_{-2} matching removes.
double glitch_depth(const core::Approximation& a) {
  double m = INFINITY;
  for (int i = 0; i <= 200; ++i) m = std::min(m, a.value(1e-4 * i / 200.0));
  return m;
}

FigureSpec fig14_spec(std::string name, core::EngineOptions options,
                      double bound) {
  return {
      .name = std::move(name),
      .paper_ref = "Fig. 14",
      .make = [] { return circuits::fig4_rc_tree(ramp_drive(1e-3)); },
      .out_node = "n4",
      .horizon = 5e-3,
      .options = options,
      .bound = bound,
      .extra = [](const FigureState& s) -> Extras {
        // The ramp atom's particular solution, the paper's eq. 63.
        const auto& atom = s.last.approximation.atoms()[1];
        return {{"ramp_slope_V_per_s", atom.affine_slope},
                {"ramp_offset_V", atom.affine_offset},
                {"glitch_depth_V", glitch_depth(s.last.approximation)}};
      },
  };
}

// Fig. 19: the first-order cost (set up, factor, steady state, m_0)
// against the incremental cost of moving to second order, which reuses
// the factorization and adds two substitutions plus a 2x2 solve.  The
// timed run is q=1 from scratch; the cost ratio is wall time and rides
// in extra.  The gated number is the incremental q=2 result's deviation
// from a from-scratch q=2 result, which must be bitwise 0.
struct CpuTimeState {
  circuit::Circuit ckt;
  circuit::NodeId out;

  core::Result scratch(int order) const {
    core::Engine engine(ckt);
    return engine.approximate(out, bare_options(order));
  }
};

BenchCase fig19_case() {
  BenchCase c;
  c.name = "fig19.cpu_time";
  c.paper_ref = "Fig. 19";
  c.accuracy_metric = "max_abs_dev_incremental_vs_scratch_V";
  c.accuracy_bound = 0.0;
  c.problem_size =
      circuits::fig16_mos_interconnect(ramp_drive(1e-9)).node_count();
  c.prepare = [] {
    auto state = std::make_shared<CpuTimeState>();
    state->ckt = circuits::fig16_mos_interconnect(ramp_drive(1e-9));
    state->out = state->ckt.find_node("n7");
    PreparedCase p;
    p.run = [state] { (void)state->scratch(1); };
    p.accuracy = [state] {
      core::Engine engine(state->ckt);
      (void)engine.approximate(state->out, bare_options(1));
      const auto incremental =
          engine.approximate(state->out, bare_options(2));
      const auto scratch = state->scratch(2);
      double max_dev = 0.0;
      for (int k = 0; k <= 400; ++k) {
        const double t = 8e-9 * k / 400.0;
        max_dev = std::max(max_dev,
                           std::abs(incremental.approximation.value(t) -
                                    scratch.approximation.value(t)));
      }
      return max_dev;
    };
    p.extra = [state]() -> Extras {
      constexpr int kSamples = 200;
      std::vector<double> increment;
      for (int i = 0; i < kSamples; ++i) {
        core::Engine engine(state->ckt);
        (void)engine.approximate(state->out, bare_options(1));
        increment.push_back(time_once_ms(
            [&] { (void)engine.approximate(state->out, bare_options(2)); }));
      }
      const double q1 = median_of(
          time_samples_ms([&] { (void)state->scratch(1); }, kSamples));
      const double q2 = median_of(
          time_samples_ms([&] { (void)state->scratch(2); }, kSamples));
      const double inc = median_of(increment);
      return {{"q1_scratch_ms", q1},
              {"q2_increment_ms", inc},
              {"q2_scratch_ms", q2},
              {"increment_over_q1", inc / q1}};
    };
    return p;
  };
  return c;
}

}  // namespace

void register_figure_cases() {
  // Fig. 7: first-order (q=1) step response of the fig. 4 RC tree;
  // Elmore(n4) = 0.6 ms sets the 3 ms window.  Paper error term: 36%.
  register_bench(figure_case({
      .name = "fig07.firstorder_step",
      .paper_ref = "Fig. 7",
      .make = [] { return circuits::fig4_rc_tree(); },
      .out_node = "n4",
      .horizon = 3e-3,
      .options = bare_options(1),
      .bound = 0.18,  // measured 0.0864
      .extra = [](const FigureState& s) -> Extras {
        core::Engine engine(s.ckt);
        return {{"elmore_delay_s", engine.elmore_delay(s.out)},
                {"error_estimate_q1",
                 engine.approximate(s.out, estimating_options(1))
                     .error_estimate}};
      },
  }));
  // Fig. 12: the grounded resistor (Fig. 9) scales the steady state to
  // the 5*4k/7k divider; m_0 matching lands it exactly.
  register_bench(figure_case({
      .name = "fig12.grounded_resistor",
      .paper_ref = "Fig. 12",
      .make = [] { return circuits::fig9_grounded_resistor(); },
      .out_node = "n4",
      .horizon = 3e-3,
      .options = bare_options(1),
      .bound = 0.23,  // measured 0.111
      .extra = [](const FigureState& s) -> Extras {
        core::Engine engine(s.ckt);
        return {{"final_value_err_V",
                 std::abs(s.last.approximation.final_value() -
                          5.0 * 4.0 / 7.0)},
                {"sim_final_value_V", s.reference.values().back()},
                {"elmore_delay_s", engine.elmore_delay(s.out)},
                {"rel_l2_q2",
                 s.rel_l2(s.approximate(bare_options(2)).approximation)}};
      },
  }));
  // Fig. 14: q=1 ramp response (1 ms rise) by ramp-atom superposition,
  // plain and with the Section 4.3 m_{-2} (initial slope) matching.
  register_bench(figure_case(
      fig14_spec("fig14.ramp_response", bare_options(1),
                 /*bound=*/0.014)));  // measured 0.00682
  core::EngineOptions slope = bare_options(1);
  slope.match_initial_slope = true;
  register_bench(figure_case(fig14_spec("fig14.ramp_slope_match", slope,
                                        /*bound=*/0.074)));  // 0.0367
  // Fig. 15: the q=2 match on the same tree (the paper's visually exact
  // second-order curve; error term 36% -> 1.6%).
  register_bench(figure_case({
      .name = "fig15.secondorder_step",
      .paper_ref = "Fig. 15",
      .make = [] { return circuits::fig4_rc_tree(); },
      .out_node = "n4",
      .horizon = 3e-3,
      .options = bare_options(2),
      .bound = 9.0e-4,  // measured 4.50e-4
      .extra = [](const FigureState& s) -> Extras {
        const auto poles = pole_reals(s.last);
        return {{"error_estimate_q2",
                 s.approximate(estimating_options(2)).error_estimate},
                {"q2_pole_slow", poles.at(0)},
                {"q2_pole_fast", poles.at(1)}};
      },
  }));
  // Figs. 17/18: stiff MOS interconnect tree driven through a 1 ns ramp;
  // dominant time constant ~0.55 ns.  Paper error terms: q=1 4.4%, q=2
  // 0.15%.
  register_bench(figure_case({
      .name = "fig17.mos_interconnect",
      .paper_ref = "Figs. 17/18",
      .make = [] { return circuits::fig16_mos_interconnect(ramp_drive(1e-9)); },
      .out_node = "n7",
      .horizon = 8e-9,
      .options = bare_options(2),
      .bound = 1.8e-3,  // measured 8.58e-4
      .extra = [](const FigureState& s) -> Extras {
        core::Engine engine(s.ckt);
        const auto actual = engine.actual_poles();
        return {{"error_estimate_q1",
                 engine.approximate(s.out, estimating_options(1))
                     .error_estimate},
                {"error_estimate_q2",
                 engine.approximate(s.out, estimating_options(2))
                     .error_estimate},
                {"rel_l2_q1",
                 s.rel_l2(s.approximate(bare_options(1)).approximation)},
                {"slowest_actual_pole", actual.front().real()},
                {"fastest_actual_pole", actual.back().real()}};
      },
  }));
  register_bench(fig19_case());
  // Figs. 20/21: v_C6(0) = 5 V makes the response at C6 nonmonotone;
  // the raw q=2 match captures the charge-sharing dip.  The paper's
  // 0.65% is an error term, not this rel-L2 metric.
  register_bench(figure_case({
      .name = "fig20_21.nonequilibrium",
      .paper_ref = "Figs. 20/21",
      .make = [] {
        return circuits::fig16_mos_interconnect(ramp_drive(1e-9), 5.0);
      },
      .out_node = "n6",
      .horizon = 8e-9,
      .options = raw_options(2),
      .bound = 0.067,  // measured 0.0331
      .extra = [](const FigureState& s) -> Extras {
        const auto poles = pole_reals(s.last);
        return {{"sim_dip_depth_V", dip_depth(s.reference)},
                {"q2_stable", s.last.stable ? 1.0 : 0.0},
                {"q2_pole_slow", poles.at(0)},
                {"q2_pole_fast", poles.at(1)}};
      },
  }));
  // The paper's failure on the same circuit: a single exponential
  // cannot follow the dip (paper error term 150%).  Three observers must
  // each see it: the simulator (rel-L2 above the 2% auto-order
  // tolerance), the engine's eq. 39 estimate (above that tolerance), and
  // the conditioning oracle (a ConditioningHazard before any solve).
  // The gated number is how many of them miss it; bound 0.
  register_bench(figure_case({
      .name = "fig20_21.raw_q1_failure",
      .paper_ref = "Figs. 20/21",
      .make = [] {
        return circuits::fig16_mos_interconnect(ramp_drive(1e-9), 5.0);
      },
      .out_node = "n6",
      .horizon = 8e-9,
      .options = raw_options(1),
      .accuracy_metric = "missed_detections",
      .bound = 0.0,
      .accuracy = [](const FigureState& s) {
        const double tolerance = core::EngineOptions{}.error_tolerance;
        core::EngineOptions audited = raw_options(1);
        audited.estimate_error = true;
        audited.preflight_audit = true;
        const core::Result r = s.approximate(audited);
        const bool oracle_flags = std::any_of(
            r.diagnostics.begin(), r.diagnostics.end(),
            [](const core::Diagnostic& d) {
              return d.code == core::DiagCode::ConditioningHazard;
            });
        return (s.rel_l2(s.last.approximation) > tolerance ? 0.0 : 1.0) +
               (r.error_estimate > tolerance ? 0.0 : 1.0) +
               (oracle_flags ? 0.0 : 1.0);
      },
      .extra = [](const FigureState& s) -> Extras {
        core::EngineOptions estimating = raw_options(1);
        estimating.estimate_error = true;
        return {{"rel_l2_q1", s.rel_l2(s.last.approximation)},
                {"error_estimate_q1",
                 s.approximate(estimating).error_estimate}};
      },
  }));
  // Figs. 23/24: the floating coupling capacitor of Fig. 22.  q=3
  // restores the aggressor fit (paper: 15% at q=2 -> 0.14% at q=3); the
  // coupling slows the 4.0 V crossing; the charge dumped on the victim
  // integrates exactly (m_0 matching).
  register_bench(figure_case({
      .name = "fig23_24.floating_cap",
      .paper_ref = "Figs. 23/24",
      .make = [] { return circuits::fig22_floating_cap(ramp_drive(1e-9)); },
      .out_node = "n7",
      .horizon = 10e-9,
      .options = bare_options(3),
      .bound = 6.1e-4,  // measured 3.02e-4
      .extra = [](const FigureState& s) -> Extras {
        constexpr double kThreshold = 4.0;
        const auto base = circuits::fig16_mos_interconnect(ramp_drive(1e-9));
        core::Engine base_engine(base);
        const auto d_base =
            base_engine.approximate(base.find_node("n7"), bare_options(3))
                .approximation.first_crossing(kThreshold, 0.0, s.horizon);
        const auto d_awe =
            s.last.approximation.first_crossing(kThreshold, 0.0, s.horizon);
        const auto d_sim = s.reference.first_crossing(kThreshold);
        // Fig. 24: the victim node over a 60 ns window.
        const auto victim = s.ckt.find_node("n12");
        constexpr double kVictimEnd = 60e-9;
        const auto sim12 = simulate(s.ckt, victim, kVictimEnd);
        core::Engine engine(s.ckt);
        const auto v3 = engine.approximate(victim, bare_options(3));
        const auto awe12 = v3.approximation.sample(0.0, kVictimEnd, 8001);
        const double nan = std::nan("");
        return {{"rel_l2_q2",
                 s.rel_l2(s.approximate(bare_options(2)).approximation)},
                {"delay_4V_uncoupled_s", d_base.value_or(nan)},
                {"delay_4V_coupled_s", d_awe.value_or(nan)},
                {"delay_4V_coupled_sim_s", d_sim.value_or(nan)},
                {"victim_peak_sim_V", sim12.max_value()},
                {"victim_peak_awe_V", awe12.max_value()},
                {"victim_area_sim_Vs", sim12.integral()},
                {"victim_area_awe_Vs", awe12.integral()},
                {"victim_area_closed_form_Vs",
                 v3.approximation.settling_area()}};
      },
  }));
  // Fig. 26: underdamped RLC ladder, q=4 captures the two dominant
  // complex pairs (overshoot and ring).  Paper: q=1 74%, q=2 22%, q=4
  // <1% error terms.  Fig. 27 (1 ns rise) rides along in extra.
  register_bench(figure_case({
      .name = "fig26.rlc_underdamped",
      .paper_ref = "Figs. 26/27",
      .make = [] { return circuits::fig25_rlc_ladder(); },
      .out_node = "n3",
      .horizon = 1e-8,
      .options = bare_options(4),
      .bound = 0.045,  // measured 0.0221
      .extra = [](const FigureState& s) -> Extras {
        const auto fig27 = circuits::fig25_rlc_ladder(ramp_drive(1e-9));
        FigureState ramp;
        ramp.ckt = fig27;
        ramp.out = fig27.find_node("n3");
        ramp.horizon = 8e-9;
        ramp.reference = simulate(ramp.ckt, ramp.out, ramp.horizon);
        return {{"rel_l2_q1",
                 s.rel_l2(s.approximate(bare_options(1)).approximation)},
                {"rel_l2_q2",
                 s.rel_l2(s.approximate(bare_options(2)).approximation)},
                {"sim_peak_V", s.reference.max_value()},
                {"awe_q4_peak_V",
                 s.last.approximation.sample(0.0, s.horizon, 4001)
                     .max_value()},
                {"fig27_rel_l2_q2",
                 ramp.rel_l2(ramp.approximate(bare_options(2))
                                 .approximation)}};
      },
  }));
}

}  // namespace awesim::bench
