// The ablation cases of the unified runner:
//
//   * ablation.freq_scaling (Section 3.5): without eq. 47's moment
//     scaling the Hankel matrix of a stiff circuit turns numerically
//     singular after the first order; with it the delivered order keeps
//     climbing.  Gated: sweep points where scaling gains no order.
//   * ablation.order_sweep (Sections 3.3, 3.4): raw eq. 24 matches of
//     rising order on three paper circuits, against the simulator.  Bad
//     models (rel-L2 above the 2% auto-order tolerance, or unstable)
//     must be flagged by the engine (eq. 39 estimate above the
//     tolerance, or stable == false).  Gated: missed detections.
//   * treelink.moments (Section IV): the first moments of a 3000-node
//     random RC tree by explicit tree walks against MNA + LU.  Gated:
//     the relative moment disagreement of the two formulations.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cases.h"
#include "circuits/paper_circuits.h"
#include "core/engine.h"
#include "core/moments.h"
#include "harness.h"
#include "mna/system.h"
#include "rctree/rctree.h"
#include "treelink/treelink.h"

namespace awesim::bench {

namespace {

struct Probe {
  std::string tag;
  circuit::Circuit ckt;
  circuit::NodeId out;
};

// --- Frequency scaling ------------------------------------------------

constexpr int kScalingMaxOrder = 8;

struct ScalingPoint {
  int used_scaled = 0;
  int used_unscaled = 0;
  double residual_scaled = 0.0;
};

struct ScalingState {
  std::vector<Probe> probes;
  /// [probe][q-1]
  std::vector<std::vector<ScalingPoint>> points;
};

/// The stiff tree plus a synthetic line whose tiny head capacitor adds a
/// pole ~5 decades faster than the rest.
std::vector<Probe> scaling_probes() {
  std::vector<Probe> probes;
  auto tree = circuits::fig16_mos_interconnect();
  const auto n7 = tree.find_node("n7");
  probes.push_back({"fig16", std::move(tree), n7});
  auto line = circuits::rc_line(12, 1.2e4, 1.2e-11);
  const auto fast = line.node("fast");
  line.add_resistor("Rf", line.find_node("n1"), fast, 0.5);
  line.add_capacitor("Cf", fast, circuit::kGround, 1e-17);
  const auto n12 = line.find_node("n12");
  probes.push_back({"line", std::move(line), n12});
  return probes;
}

BenchCase freq_scaling_case() {
  BenchCase c;
  c.name = "ablation.freq_scaling";
  c.paper_ref = "Section 3.5 (eq. 47)";
  c.accuracy_metric = "sweep_points_without_scaling_gain";
  c.accuracy_bound = 0.0;
  c.problem_size = circuits::fig16_mos_interconnect().node_count();
  c.prepare = [] {
    auto state = std::make_shared<ScalingState>();
    state->probes = scaling_probes();
    PreparedCase p;
    p.run = [state] {
      state->points.assign(state->probes.size(), {});
      for (std::size_t i = 0; i < state->probes.size(); ++i) {
        const Probe& probe = state->probes[i];
        core::Engine engine(probe.ckt);
        for (int q = 1; q <= kScalingMaxOrder; ++q) {
          core::EngineOptions on;
          on.order = q;
          on.estimate_error = false;
          core::EngineOptions off = on;
          off.frequency_scaling = false;
          const auto m_on =
              engine.approximate(probe.out, on).approximation.atoms()[1]
                  .match;
          const auto m_off =
              engine.approximate(probe.out, off).approximation.atoms()[1]
                  .match;
          state->points[i].push_back(
              {m_on.order_used, m_off.order_used, m_on.moment_residual});
        }
      }
    };
    p.accuracy = [state] {
      double misses = 0.0;
      for (const auto& sweep : state->points) {
        for (std::size_t q = 1; q < sweep.size(); ++q) {  // orders >= 2
          if (sweep[q].used_scaled <= sweep[q].used_unscaled) misses += 1.0;
        }
      }
      return misses;
    };
    p.extra = [state] {
      Extras out;
      double residual = 0.0;
      for (std::size_t i = 0; i < state->probes.size(); ++i) {
        int scaled = 0;
        int unscaled = 0;
        for (const auto& pt : state->points[i]) {
          scaled = std::max(scaled, pt.used_scaled);
          unscaled = std::max(unscaled, pt.used_unscaled);
          residual = std::max(residual, pt.residual_scaled);
        }
        const std::string& tag = state->probes[i].tag;
        out.emplace_back(tag + "_max_order_scaled", scaled);
        out.emplace_back(tag + "_max_order_unscaled", unscaled);
      }
      out.emplace_back("max_scaled_residual", residual);
      return out;
    };
    return p;
  };
  return c;
}

// --- Order sweep ------------------------------------------------------

struct SweepProbe {
  Probe probe;
  double horizon = 0.0;
  int max_order = 0;
  waveform::Waveform reference;
  la::ComplexVector actual;
};

struct SweepPoint {
  core::Approximation approximation;
  bool stable = true;
  double estimate = 0.0;  // eq. 39
  double cauchy = 0.0;    // eqs. 40-46
  double rel_l2 = 0.0;    // vs the simulator, filled in by accuracy
  double dominant_pole_err = 0.0;
};

struct SweepState {
  std::vector<SweepProbe> probes;
  /// [probe][q-1]
  std::vector<std::vector<SweepPoint>> points;
};

/// Each circuit up to the order below its Hankel rank (where the eq. 39
/// q-vs-(q+1) estimate still compares two different models).  The raw
/// window turns the stiff tree unstable at q=5 (Section 3.3).
std::vector<SweepProbe> sweep_probes() {
  std::vector<SweepProbe> probes;
  auto add = [&](std::string tag, circuit::Circuit ckt, const char* node,
                 double horizon, int max_order) {
    const auto out = ckt.find_node(node);
    SweepProbe sp;
    sp.probe = {std::move(tag), std::move(ckt), out};
    sp.horizon = horizon;
    sp.max_order = max_order;
    sp.actual = core::Engine(sp.probe.ckt).actual_poles();
    probes.push_back(std::move(sp));
  };
  add("fig4", circuits::fig4_rc_tree(), "n4", 4e-3, 3);
  add("fig16", circuits::fig16_mos_interconnect(ramp_drive(1e-9)), "n7",
      8e-9, 5);
  add("fig25", circuits::fig25_rlc_ladder(), "n3", 6e-9, 5);
  return probes;
}

bool is_bad(const SweepPoint& pt, double tolerance) {
  return !pt.stable || !(pt.rel_l2 <= tolerance);
}

bool is_flagged(const SweepPoint& pt, double tolerance) {
  return !pt.stable || !(pt.estimate <= tolerance);
}

BenchCase order_sweep_case() {
  BenchCase c;
  c.name = "ablation.order_sweep";
  c.paper_ref = "Sections 3.3/3.4";
  c.accuracy_metric = "missed_detections";
  c.accuracy_bound = 0.0;
  c.problem_size = circuits::fig16_mos_interconnect().node_count();
  c.prepare = [] {
    auto state = std::make_shared<SweepState>();
    state->probes = sweep_probes();
    PreparedCase p;
    p.run = [state] {
      state->points.assign(state->probes.size(), {});
      for (std::size_t i = 0; i < state->probes.size(); ++i) {
        const SweepProbe& sp = state->probes[i];
        core::Engine engine(sp.probe.ckt);
        for (int q = 1; q <= sp.max_order; ++q) {
          core::EngineOptions opt;
          opt.order = q;
          opt.degrade = false;
          opt.allow_window_shift = false;
          opt.preflight_lint = false;
          core::Result r = engine.approximate(sp.probe.out, opt);
          core::EngineOptions cauchy = opt;
          cauchy.cauchy_error_bound = true;
          SweepPoint pt;
          pt.stable = r.stable;
          pt.estimate = r.error_estimate;
          pt.cauchy = engine.approximate(sp.probe.out, cauchy).error_estimate;
          pt.dominant_pole_err = INFINITY;
          for (const auto& atom : r.approximation.atoms()) {
            for (const auto& t : atom.terms) {
              pt.dominant_pole_err =
                  std::min(pt.dominant_pole_err,
                           std::abs(t.pole - sp.actual.front()) /
                               std::abs(sp.actual.front()));
            }
          }
          pt.approximation = std::move(r.approximation);
          state->points[i].push_back(std::move(pt));
        }
      }
    };
    p.reference = [state] {
      for (auto& sp : state->probes) {
        sp.reference = simulate(sp.probe.ckt, sp.probe.out, sp.horizon);
      }
    };
    p.accuracy = [state] {
      const double tolerance = core::EngineOptions{}.error_tolerance;
      double missed = 0.0;
      double unstable = 0.0;
      for (std::size_t i = 0; i < state->probes.size(); ++i) {
        const SweepProbe& sp = state->probes[i];
        for (auto& pt : state->points[i]) {
          pt.rel_l2 = pt.approximation.sample(0.0, sp.horizon, 2001)
                          .relative_error_vs(sp.reference);
          if (is_bad(pt, tolerance) && !is_flagged(pt, tolerance)) {
            missed += 1.0;
          }
          if (!pt.stable) unstable += 1.0;
        }
      }
      // The raw instability the paper warns about must still reproduce,
      // or there is nothing left to detect.
      return missed + (unstable == 0.0 ? 1.0 : 0.0);
    };
    p.extra = [state] {
      const double tolerance = core::EngineOptions{}.error_tolerance;
      double bad = 0.0;
      double unstable = 0.0;
      double cauchy_violations = 0.0;
      double decades = 0.0;
      Extras out;
      for (std::size_t i = 0; i < state->probes.size(); ++i) {
        const auto& sweep = state->points[i];
        std::size_t last_stable = 0;
        for (std::size_t q = 0; q < sweep.size(); ++q) {
          const SweepPoint& pt = sweep[q];
          if (is_bad(pt, tolerance)) bad += 1.0;
          if (!pt.stable) {
            unstable += 1.0;
            continue;
          }
          last_stable = q;
          if (std::isfinite(pt.estimate) && std::isfinite(pt.cauchy)) {
            if (pt.cauchy < pt.estimate) cauchy_violations += 1.0;
            decades = std::max(
                decades, std::abs(std::log10(pt.estimate / pt.rel_l2)));
          }
        }
        // Pole creep: the dominant pole from q=1 to the last stable q.
        const std::string& tag = state->probes[i].probe.tag;
        out.emplace_back(tag + "_dominant_pole_err_q1",
                         sweep.front().dominant_pole_err);
        out.emplace_back(
            tag + "_dominant_pole_err_q" + std::to_string(last_stable + 1),
            sweep[last_stable].dominant_pole_err);
      }
      out.emplace_back("bad_points", bad);
      out.emplace_back("unstable_points", unstable);
      out.emplace_back("cauchy_below_eq39_points", cauchy_violations);
      out.emplace_back("eq39_vs_true_max_decades", decades);
      return out;
    };
    return p;
  };
  return c;
}

// --- Tree/link moments ------------------------------------------------

constexpr int kMoments = 9;  // mu_{-1} .. mu_7
constexpr std::size_t kTreeNodes = 3000;

/// mu_{-1} .. mu_{count-2} at the node voltages via MNA + LU.
std::vector<la::RealVector> mna_moments(const circuit::Circuit& ckt,
                                        int count) {
  mna::MnaSystem mna(ckt);
  const auto xb = mna.solve(mna.rhs_at(1e30));
  const auto& x0 = mna.initial_state();
  la::RealVector xh0(mna.dim(), 0.0);
  for (std::size_t i = 0; i < xh0.size(); ++i) xh0[i] = x0[i] - xb[i];
  core::MomentSequence seq(mna, xh0);
  const std::size_t nodes = ckt.node_count() - 1;
  std::vector<la::RealVector> out;
  for (int j = -1; j + 1 < count; ++j) {
    const auto& mu = seq.mu(j);
    out.emplace_back(mu.begin(), mu.begin() + static_cast<long>(nodes));
  }
  return out;
}

/// Worst per-moment relative disagreement (scaled by each moment
/// vector's largest entry) of the two formulations.
double moment_disagreement(const circuit::Circuit& ckt) {
  const auto a = treelink::TreeLinkSystem(ckt).moments(kMoments);
  const auto b = mna_moments(ckt, kMoments);
  double worst = 0.0;
  for (std::size_t k = 0; k < b.size(); ++k) {
    double scale = 0.0;
    for (double v : b[k]) scale = std::max(scale, std::abs(v));
    for (std::size_t n = 0; n < b[k].size(); ++n) {
      worst = std::max(worst, std::abs(a[k][n] - b[k][n]) / scale);
    }
  }
  return worst;
}

BenchCase treelink_case() {
  BenchCase c;
  c.name = "treelink.moments";
  c.paper_ref = "Section IV (eqs. 51-62)";
  c.accuracy_metric = "moment_rel_dev_vs_mna";
  // Round-off-level agreement: 1000x the measured 5.92e-12.
  c.accuracy_bound = 6.0e-9;
  c.problem_size = kTreeNodes;
  c.prepare = [] {
    auto ckt = std::make_shared<circuit::Circuit>(rctree::to_circuit(
        rctree::random_tree(kTreeNodes, 1234 + kTreeNodes),
        circuit::Stimulus::step(0.0, 5.0)));
    PreparedCase p;
    p.run = [ckt] {
      (void)treelink::TreeLinkSystem(*ckt).moments(kMoments);
    };
    p.accuracy = [ckt] {
      return std::max(moment_disagreement(*ckt),
                      moment_disagreement(circuits::fig9_grounded_resistor()));
    };
    p.extra = [ckt]() -> Extras {
      const double tl = median_of(time_samples_ms(
          [&] { (void)treelink::TreeLinkSystem(*ckt).moments(kMoments); },
          5));
      const double mna = median_of(
          time_samples_ms([&] { (void)mna_moments(*ckt, kMoments); }, 5));
      return {{"treelink_ms", tl},
              {"mna_lu_ms", mna},
              {"mna_over_treelink", mna / tl},
              {"link_unknowns",
               static_cast<double>(
                   treelink::TreeLinkSystem(*ckt).link_unknowns())},
              {"fig9_link_unknowns",
               static_cast<double>(
                   treelink::TreeLinkSystem(
                       circuits::fig9_grounded_resistor())
                       .link_unknowns())}};
    };
    return p;
  };
  return c;
}

}  // namespace

void register_ablation_cases() {
  register_bench(freq_scaling_case());
  register_bench(order_sweep_case());
  register_bench(treelink_case());
}

}  // namespace awesim::bench
