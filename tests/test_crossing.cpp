// Differential tier for Approximation::first_crossing: every crossing
// is compared bit for bit against a verbatim copy of the original dense
// search (a 4096-point uniform scan, then 60 bisection steps), which is
// kept here as the oracle.  The cases cover the timing analyzer's own
// use (every sink of generated RC-tree and RC-mesh stages at the delay
// and slew thresholds) and the shapes a shortcut could get wrong:
// overshoot, a root exactly on a grid point, a level met at t0, no
// crossing, a stimulus atom that jumps, offsets that cancel down to
// their rounding, repeated and complex poles, and seeded random
// real-pole sums.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "core/engine.h"

namespace awesim {

namespace {

using core::Approximation;
using core::AtomApproximation;
using core::PoleResidueTerm;

// The original first_crossing, verbatim: scan 4096 uniform points for
// the first sign change, then bisect the bracket 60 times.
std::optional<double> oracle_crossing(const Approximation& a, double level,
                                      double t0, double t1) {
  constexpr std::size_t kScanPoints = 4096;
  if (!(t1 > t0)) return std::nullopt;
  double prev_t = t0;
  double prev_v = a.value(t0) - level;
  if (prev_v == 0.0) return t0;
  for (std::size_t i = 1; i <= kScanPoints; ++i) {
    const double t =
        t0 + (t1 - t0) * static_cast<double>(i) /
                 static_cast<double>(kScanPoints);
    const double v = a.value(t) - level;
    if ((prev_v < 0.0 && v >= 0.0) || (prev_v > 0.0 && v <= 0.0)) {
      double lo = prev_t;
      double hi = t;
      double flo = prev_v;
      for (int it = 0; it < 60; ++it) {
        const double mid = 0.5 * (lo + hi);
        const double fm = a.value(mid) - level;
        if ((flo < 0.0) == (fm < 0.0)) {
          lo = mid;
          flo = fm;
        } else {
          hi = mid;
        }
      }
      return 0.5 * (lo + hi);
    }
    prev_t = t;
    prev_v = v;
  }
  return std::nullopt;
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Bitwise agreement with the oracle; returns whether a crossing exists.
bool expect_same_crossing(const Approximation& a, double level, double t0,
                          double t1, const std::string& what) {
  const std::optional<double> want = oracle_crossing(a, level, t0, t1);
  const std::optional<double> got = a.first_crossing(level, t0, t1);
  EXPECT_EQ(got.has_value(), want.has_value()) << what;
  if (got && want) {
    EXPECT_EQ(bits(*got), bits(*want))
        << what << ": got " << *got << ", want " << *want;
  }
  return want.has_value();
}

// The grid point i of the scan over [t0, t1], computed as the search
// computes it.
double grid(double t0, double t1, std::size_t i) {
  return t0 + (t1 - t0) * static_cast<double>(i) / 4096.0;
}

PoleResidueTerm term(double pole, double residue, int power = 1) {
  return {{pole, 0.0}, {residue, 0.0}, power};
}

Approximation single_atom(double offset, double slope,
                          std::vector<PoleResidueTerm> terms) {
  Approximation a;
  AtomApproximation atom;
  atom.affine_offset = offset;
  atom.affine_slope = slope;
  atom.terms = std::move(terms);
  a.atoms().push_back(std::move(atom));
  return a;
}

struct Stage {
  circuit::Circuit ckt;
  std::vector<circuit::NodeId> sinks;
};

// A timing stage as the analyzer builds one: ramp source, driver
// resistance, then a seeded random RC tree whose every node is a sink,
// optionally closed into a mesh by cross-link resistors.
Stage rc_stage(std::uint32_t seed, std::size_t nodes, std::size_t links,
               double slew) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> res(20.0, 400.0);
  std::uniform_real_distribution<double> cap(2e-15, 60e-15);
  Stage s;
  auto& ckt = s.ckt;
  const auto vin = ckt.node("in");
  ckt.add_vsource("Vdrv", vin, circuit::kGround,
                  slew > 0.0 ? circuit::Stimulus::ramp_step(0.0, 5.0, slew)
                             : circuit::Stimulus::step(0.0, 5.0));
  std::vector<circuit::NodeId> ids{ckt.node("n0")};
  ckt.add_resistor("Rdrv", vin, ids[0], 250.0);
  ckt.add_capacitor("C0", ids[0], circuit::kGround, cap(rng));
  for (std::size_t i = 1; i < nodes; ++i) {
    const auto id = ckt.node("n" + std::to_string(i));
    std::uniform_int_distribution<std::size_t> pick(0, i - 1);
    ckt.add_resistor("R" + std::to_string(i), ids[pick(rng)], id, res(rng));
    ckt.add_capacitor("C" + std::to_string(i), id, circuit::kGround,
                      cap(rng));
    ids.push_back(id);
  }
  std::uniform_int_distribution<std::size_t> any(0, nodes - 1);
  for (std::size_t k = 0; k < links; ++k) {
    const std::size_t a = any(rng);
    const std::size_t b = any(rng);
    if (a == b) continue;
    ckt.add_resistor("X" + std::to_string(k), ids[a], ids[b], res(rng));
  }
  s.sinks = ids;
  return s;
}

// True when every term of the model has a real pole: the sinks whose
// crossings may skip grid points.
bool real_poles(const Approximation& a) {
  for (const auto& atom : a.atoms()) {
    for (const auto& t : atom.terms) {
      if (t.pole.imag() != 0.0) return false;
    }
  }
  return true;
}

struct Work {
  std::size_t crossings = 0;   // real-pole crossings
  std::size_t most_calls = 0;  // the most value() calls one of them took
};

// Every sink of a stage at the analyzer's delay and slew thresholds,
// over the analyzer's horizon.
void check_stage(const Stage& s, double slew, const std::string& name,
                 Work& work) {
  core::Engine engine(s.ckt);
  core::EngineOptions options;
  options.order = 3;
  options.auto_order = true;
  options.error_tolerance = 0.01;
  options.max_order = 6;
  options.preflight_lint = false;
  const core::BatchResult batch = engine.approximate_all(s.sinks, options);
  std::size_t crossings = 0;
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    const Approximation& a = batch.results[i].approximation;
    const double horizon =
        12.0 * a.dominant_time_constant() + 3.0 * slew + 1e-15;
    for (const double fraction : {0.5, 0.2, 0.8}) {
      crossings += expect_same_crossing(
          a, 5.0 * fraction, 0.0, horizon,
          name + " sink " + std::to_string(i) + " at " +
              std::to_string(fraction));
      if (!real_poles(a)) continue;
      std::size_t calls = 0;
      a.first_crossing(5.0 * fraction, 0.0, horizon, &calls);
      ++work.crossings;
      work.most_calls = std::max(work.most_calls, calls);
    }
  }
  EXPECT_EQ(crossings, 3 * batch.results.size()) << name;
}

}  // namespace

// The same sweep also bounds the work.  The dense scan spends ~570
// value() calls per crossing; on a sink whose model has only real poles
// the skipping search must stay within 120 (a few dozen scan points and
// at most ~50 bisection steps).  Complex-pole models, which RC meshes
// sometimes match, step point by point as before.
TEST(Crossing, EverySinkOfRcTreeAndMeshStages) {
  Work work;
  for (const std::uint32_t seed : {1u, 7u, 1013u}) {
    for (const double slew : {0.0, 0.1e-9, 1.5e-9}) {
      const std::string tag =
          "seed " + std::to_string(seed) + " slew " + std::to_string(slew);
      check_stage(rc_stage(seed, 24, 0, slew), slew, "tree " + tag, work);
      check_stage(rc_stage(seed, 24, 8, slew), slew, "mesh " + tag, work);
    }
  }
  EXPECT_GE(work.crossings, 1000u);
  EXPECT_LE(work.most_calls, 120u);
}

TEST(Crossing, OvershootingTwoPoleResponse) {
  // v = 1 + e^{-t/tau} - 2 e^{-2t/tau}: rises through 1, peaks at
  // 1.125, settles back to 1 from above.
  const double p = -1e9;
  const Approximation a =
      single_atom(1.0, 0.0, {term(p, 1.0), term(2.0 * p, -2.0)});
  for (const double level : {0.5, 1.0, 1.1, 1.124, 1.125, 1.2}) {
    expect_same_crossing(a, level, 0.0, 20e-9,
                         "overshoot level " + std::to_string(level));
  }
  // Falling through the peak: a level the response only touches from
  // above after the overshoot.
  expect_same_crossing(a, 1.05, 3e-9, 20e-9, "overshoot falling");
}

TEST(Crossing, RootExactlyOnAGridPoint) {
  const double t1 = 10e-9;
  // Pure ramp: the level is the value at grid point 1000.
  const Approximation ramp = single_atom(0.0, 1e9, {});
  const double at = grid(0.0, t1, 1000);
  expect_same_crossing(ramp, ramp.value(at), 0.0, t1, "ramp on grid");
  const auto ramp_hit = ramp.first_crossing(ramp.value(at), 0.0, t1);
  ASSERT_TRUE(ramp_hit.has_value());
  // One-pole charge: the level is the computed value at a grid point,
  // so the scan meets value - level == 0 exactly there.
  const Approximation rc = single_atom(1.0, 0.0, {term(-1e9, -1.0)});
  for (const std::size_t i : {std::size_t{1}, std::size_t{7},
                              std::size_t{300}, std::size_t{4095},
                              std::size_t{4096}}) {
    expect_same_crossing(rc, rc.value(grid(0.0, t1, i)), 0.0, t1,
                         "rc on grid point " + std::to_string(i));
  }
}

TEST(Crossing, LevelMetAtStart) {
  const Approximation rc = single_atom(1.0, 0.0, {term(-1e9, -1.0)});
  const auto at_zero = rc.first_crossing(rc.value(0.0), 0.0, 5e-9);
  ASSERT_TRUE(at_zero.has_value());
  EXPECT_EQ(bits(*at_zero), bits(0.0));
  expect_same_crossing(rc, rc.value(0.0), 0.0, 5e-9, "level at t0");
  expect_same_crossing(rc, rc.value(1e-9), 1e-9, 5e-9, "level at t0 > 0");
}

TEST(Crossing, NoCrossing) {
  const Approximation rc = single_atom(1.0, 0.0, {term(-1e9, -1.0)});
  EXPECT_FALSE(expect_same_crossing(rc, 1.5, 0.0, 20e-9, "above final"));
  EXPECT_FALSE(expect_same_crossing(rc, -0.5, 0.0, 20e-9, "below start"));
  // A level the response reaches only after the window closes.
  EXPECT_FALSE(expect_same_crossing(rc, 0.999, 0.0, 2e-9, "too late"));
  // Empty and reversed windows.
  EXPECT_FALSE(rc.first_crossing(0.5, 1e-9, 1e-9).has_value());
  EXPECT_FALSE(rc.first_crossing(0.5, 2e-9, 1e-9).has_value());
}

TEST(Crossing, StepAtomWithAJump) {
  // A slow charge to 1, then at 3 ns a second atom that jumps the
  // response by +1 and relaxes it by a faster pole.
  Approximation a = single_atom(1.0, 0.0, {term(-2e8, -1.0)});
  AtomApproximation step;
  step.start_time = 3e-9;
  step.affine_offset = 0.5;
  step.terms = {term(-3e9, 0.5)};
  a.atoms().push_back(std::move(step));
  // 0.9 is met only at the jump; 1.2 is met on the jump's far side;
  // 0.3 comes before it; 1.6 is never met.
  for (const double level : {0.3, 0.9, 1.2, 1.45, 1.6}) {
    expect_same_crossing(a, level, 0.0, 10e-9,
                         "jump level " + std::to_string(level));
  }
  // A falling jump (a negative step) with a start off the grid.
  Approximation fall = single_atom(1.0, 0.0, {term(-1e9, -1.0)});
  AtomApproximation drop;
  drop.start_time = 2.3456789e-9;
  drop.affine_offset = -1.0;
  drop.terms = {term(-5e8, 0.25)};
  fall.atoms().push_back(std::move(drop));
  for (const double level : {0.5, 0.2, -0.1, 0.05}) {
    expect_same_crossing(fall, level, 0.0, 15e-9,
                         "drop level " + std::to_string(level));
  }
}

TEST(Crossing, RampAtomsOfARampedStage) {
  // The superposition a ramp drive produces: a ramp-up atom at 0 and a
  // cancelling ramp-down atom at the end of the rise.
  const double rise = 0.4e-9;
  const double slope = 5.0 / rise;
  Approximation a =
      single_atom(-slope * 0.3e-9, slope, {term(-1e9 / 0.3, slope * 0.3e-9)});
  AtomApproximation end;
  end.start_time = rise;
  end.affine_offset = slope * 0.3e-9;
  end.affine_slope = -slope;
  end.terms = {term(-1e9 / 0.3, -slope * 0.3e-9)};
  a.atoms().push_back(std::move(end));
  for (const double level : {1.0, 2.5, 4.0, 4.99}) {
    expect_same_crossing(a, level, 0.0, 5e-9,
                         "ramp level " + std::to_string(level));
  }
}

TEST(Crossing, HeavyCancellationBetweenAtoms) {
  // Two atoms whose offsets cancel to a small ramp: every computed value
  // carries the rounding of the large offsets, so the grid values form
  // a staircase whose steps are off by up to an ulp of the offset.  Only
  // the rounding margin keeps the skip from jumping onto a point where
  // the computed value already reached the level.
  for (const double big : {1e8, 1e9, 1e10}) {
    Approximation a = single_atom(big, 1.2345678e9, {});
    AtomApproximation cancel;
    cancel.affine_offset = -big;
    a.atoms().push_back(std::move(cancel));
    const double t1 = 9.87654321e-9;
    for (std::size_t k = 1; k < 200; ++k) {
      const double at = a.value(grid(0.0, t1, k));
      for (const double level : {at, std::nextafter(at, -1.0)}) {
        expect_same_crossing(a, level, 0.0, t1,
                             "offset " + std::to_string(big) + " point " +
                                 std::to_string(k));
      }
    }
  }
}

TEST(Crossing, RepeatedAndComplexPoles) {
  // Critically damped: a double pole.
  const Approximation repeated = single_atom(
      1.0, 0.0, {term(-1e9, -1.0), term(-1e9, -1e9, 2)});
  for (const double level : {0.1, 0.5, 0.9}) {
    expect_same_crossing(repeated, level, 0.0, 20e-9,
                         "double pole level " + std::to_string(level));
  }
  // Underdamped RLC: a conjugate pair rings through the final value.
  Approximation ringing;
  AtomApproximation atom;
  atom.affine_offset = 1.0;
  const std::complex<double> pole(-2e8, 2e9);
  const std::complex<double> residue(-0.5, -0.05);
  atom.terms = {{pole, residue, 1}, {std::conj(pole), std::conj(residue), 1}};
  ringing.atoms().push_back(std::move(atom));
  for (const double level : {0.5, 1.0, 1.3, 1.6, 2.5}) {
    expect_same_crossing(ringing, level, 0.0, 30e-9,
                         "ringing level " + std::to_string(level));
  }
}

TEST(Crossing, SeededRandomRealPoleSums) {
  std::mt19937 rng(20261020u);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> order(1, 4);
  for (int trial = 0; trial < 300; ++trial) {
    Approximation a;
    const int atoms = 1 + static_cast<int>(unit(rng) < 0.4);
    double slowest = 0.0;
    for (int k = 0; k < atoms; ++k) {
      AtomApproximation atom;
      atom.start_time = k == 0 ? 0.0 : 3e-9 * unit(rng);
      atom.affine_offset = 2.0 * unit(rng) - 0.5;
      atom.affine_slope = unit(rng) < 0.3 ? (unit(rng) - 0.5) * 1e9 : 0.0;
      const int q = order(rng);
      for (int j = 0; j < q; ++j) {
        const double pole = -std::pow(10.0, 8.0 + 2.5 * unit(rng));
        slowest = std::max(slowest, -1.0 / pole);
        atom.terms.push_back(term(pole, 2.0 * unit(rng) - 1.0));
      }
      a.atoms().push_back(std::move(atom));
    }
    const double t1 = 12.0 * slowest;
    const double lo = a.value(0.0);
    const double hi = a.value(t1);
    for (const double w : {0.05, 0.5, 0.95}) {
      expect_same_crossing(a, lo + w * (hi - lo), 0.0, t1,
                           "trial " + std::to_string(trial));
    }
  }
}

}  // namespace awesim
