// The pole tables of the unified runner: Table I (the stiff RC tree of
// Fig. 16, with and without the nonequilibrium initial condition) and
// Table II (the RLC ladder of Fig. 25).  The timed run is the AWE
// matches the table lists; the gated number is the relative distance
// from the approximating poles to the circuit's exact poles
// (Engine::actual_poles, a dense la::eig solve).
//
// Bounds: the measured value times a 2x headroom; EXPERIMENTS.md lists
// each one.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cases.h"
#include "circuits/paper_circuits.h"
#include "core/engine.h"
#include "harness.h"

namespace awesim::bench {

namespace {

/// The first active atom's poles at order q, slowest first (conjugates
/// ordered by imaginary part).
la::ComplexVector approx_poles(const circuit::Circuit& ckt,
                               circuit::NodeId out, int q) {
  core::EngineOptions opt;
  opt.order = q;
  opt.estimate_error = false;
  core::Engine engine(ckt);
  const auto result = engine.approximate(out, opt);
  la::ComplexVector poles;
  for (const auto& atom : result.approximation.atoms()) {
    for (const auto& t : atom.terms) poles.push_back(t.pole);
    if (!atom.terms.empty()) break;
  }
  std::sort(poles.begin(), poles.end(), [](la::Complex a, la::Complex b) {
    if (std::abs(a) != std::abs(b)) return std::abs(a) < std::abs(b);
    return a.imag() < b.imag();
  });
  return poles;
}

/// Relative distance from `p` to the nearest exact pole.
double nearest_rel_err(la::Complex p, const la::ComplexVector& actual) {
  double best = INFINITY;
  for (const auto& a : actual) {
    best = std::min(best, std::abs(p - a) / std::abs(a));
  }
  return best;
}

/// Worst nearest-pole error over a set of approximating poles.
double worst_rel_err(const la::ComplexVector& poles,
                     const la::ComplexVector& actual) {
  double worst = 0.0;
  for (const auto& p : poles) {
    worst = std::max(worst, nearest_rel_err(p, actual));
  }
  return worst;
}

struct PoleHalf {
  circuit::Circuit ckt;
  circuit::NodeId out;
  la::ComplexVector actual;
  la::ComplexVector q1, q2, q4;
};

PoleHalf make_half(circuit::Circuit ckt, const std::string& node) {
  PoleHalf h;
  h.ckt = std::move(ckt);
  h.out = h.ckt.find_node(node);
  h.actual = core::Engine(h.ckt).actual_poles();
  return h;
}

// Table I: the 1st-order pole approximates the dominant actual pole; the
// 2nd-order dominant pole lands on it.  With v_C6(0) = 5 V (observed at
// C6) a low-frequency zero partially cancels the second pole and the
// 2nd-order match picks a pole beyond it.  Gated: the worse of the two
// halves' 2nd-order dominant-pole errors.
BenchCase table1_case() {
  BenchCase c;
  c.name = "table1.rctree_poles";
  c.paper_ref = "Table I";
  c.accuracy_metric = "q2_dominant_pole_rel_err_vs_eig";
  c.accuracy_bound = 5.5e-3;  // measured 2.71e-3 (the IC half)
  c.problem_size = circuits::fig16_mos_interconnect().node_count();
  c.prepare = [] {
    auto halves = std::make_shared<std::vector<PoleHalf>>();
    halves->push_back(
        make_half(circuits::fig16_mos_interconnect(ramp_drive(1e-9)), "n7"));
    halves->push_back(make_half(
        circuits::fig16_mos_interconnect(ramp_drive(1e-9), 5.0), "n6"));
    PreparedCase p;
    p.run = [halves] {
      for (auto& h : *halves) {
        h.q1 = approx_poles(h.ckt, h.out, 1);
        h.q2 = approx_poles(h.ckt, h.out, 2);
      }
    };
    p.accuracy = [halves] {
      double worst = 0.0;
      for (const auto& h : *halves) {
        worst = std::max(worst, nearest_rel_err(h.q2.at(0), h.actual));
      }
      return worst;
    };
    p.extra = [halves] {
      const PoleHalf& plain = (*halves)[0];
      const PoleHalf& ic = (*halves)[1];
      return Extras{
          {"q1_dominant_rel_err", nearest_rel_err(plain.q1.at(0),
                                                  plain.actual)},
          {"q2_dominant_rel_err", nearest_rel_err(plain.q2.at(0),
                                                  plain.actual)},
          {"q2_second_pole", plain.q2.at(1).real()},
          {"ic_q1_dominant_rel_err", nearest_rel_err(ic.q1.at(0),
                                                     ic.actual)},
          {"ic_q2_dominant_rel_err", nearest_rel_err(ic.q2.at(0),
                                                     ic.actual)},
          {"ic_q2_second_pole", ic.q2.at(1).real()},
          {"actual_poles", static_cast<double>(plain.actual.size())},
          {"stiffness_ratio",
           std::abs(plain.actual.back()) / std::abs(plain.actual.front())}};
    };
    return p;
  };
  return c;
}

// Table II: the underdamped RLC ladder has three complex pairs; q=2
// finds one pair near the dominant one, q=4 places two pairs on the
// first two.  Gated: the worst nearest-pole error over the q=4 poles.
BenchCase table2_case() {
  BenchCase c;
  c.name = "table2.rlc_poles";
  c.paper_ref = "Table II";
  c.accuracy_metric = "q4_worst_pole_rel_err_vs_eig";
  c.accuracy_bound = 1.5e-2;  // measured 7.3e-3
  c.problem_size = circuits::fig25_rlc_ladder().node_count();
  c.prepare = [] {
    auto h = std::make_shared<PoleHalf>(
        make_half(circuits::fig25_rlc_ladder(), "n3"));
    PreparedCase p;
    p.run = [h] {
      h->q1 = approx_poles(h->ckt, h->out, 1);
      h->q2 = approx_poles(h->ckt, h->out, 2);
      h->q4 = approx_poles(h->ckt, h->out, 4);
    };
    p.accuracy = [h] { return worst_rel_err(h->q4, h->actual); };
    p.extra = [h] {
      // Conjugate pairs sort negative imaginary part first, so the
      // upper member of pair k sits at index 2k+1.
      return Extras{
          {"q2_worst_rel_err", worst_rel_err(h->q2, h->actual)},
          {"q1_pole", h->q1.at(0).real()},
          {"q2_pole_re", h->q2.at(1).real()},
          {"q2_pole_im", h->q2.at(1).imag()},
          {"q4_slow_pole_re", h->q4.at(1).real()},
          {"q4_slow_pole_im", h->q4.at(1).imag()},
          {"q4_fast_pole_re", h->q4.at(3).real()},
          {"q4_fast_pole_im", h->q4.at(3).imag()},
          {"actual_poles", static_cast<double>(h->actual.size())}};
    };
    return p;
  };
  return c;
}

}  // namespace

void register_table_cases() {
  register_bench(table1_case());
  register_bench(table2_case());
}

}  // namespace awesim::bench
