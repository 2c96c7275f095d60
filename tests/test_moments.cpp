// Moment generation (Section 3.2): recursion against hand-computed values,
// consistency with the exact transfer function, actual-pole extraction,
// and the t=0+ initial value/slope (the t=0+ circuit of eq. 8).
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/circuit.h"
#include "core/moments.h"
#include "mna/system.h"

namespace awesim::core {

using circuit::Circuit;
using circuit::kGround;
using circuit::Stimulus;

namespace {

// V -- R -- out -- C: transfer H(s) = 1/(1+sRC);
// step V0: xh0(out) = -V0, mu_{-1} = V0, mu_j = -V0 * (-RC)^(j+1)... more
// precisely X_h(s) = -V0/(1+sRC) = -V0 sum (-RC s)^j, so
// mu_j = -V0 (-RC)^j for j >= 0.
struct RcFixture {
  Circuit ckt;
  mna::MnaSystem mna;
  std::size_t out;

  explicit RcFixture(double r, double c, double v)
      : ckt(make(r, c, v)), mna(ckt), out(mna.node_index(ckt.find_node("out"))) {}

  static Circuit make(double r, double c, double v) {
    Circuit k;
    const auto in = k.node("in");
    const auto out = k.node("out");
    k.add_vsource("V1", in, kGround, Stimulus::step(0.0, v));
    k.add_resistor("R1", in, out, r);
    k.add_capacitor("C1", out, kGround, c);
    return k;
  }

  la::RealVector xh0() const {
    // Steady state 5 everywhere, start 0: xh0 = -x_ss.
    la::RealVector x(mna.dim(), 0.0);
    const la::RealVector ss = mna.solve(mna.rhs_at(1.0));
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = -ss[i];
    return x;
  }
};

}  // namespace

TEST(Moments, SingleRcRecursion) {
  const double r = 2.0;
  const double c = 0.5;  // tau = 1
  const double v = 5.0;
  RcFixture f(r, c, v);
  MomentSequence seq(f.mna, f.xh0());
  EXPECT_NEAR(seq.mu(-1, f.out), v, 1e-12);
  const double tau = r * c;
  for (int j = 0; j <= 5; ++j) {
    const double expected = -v * std::pow(-tau, j);
    EXPECT_NEAR(seq.mu(j, f.out), expected, 1e-10) << "j=" << j;
  }
}

TEST(Moments, LadderElmoreFromMu0) {
  // Two-section ladder: Elmore at far end = R1*(C1+C2) + R2*C2.
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");
  ckt.add_vsource("V1", in, kGround, Stimulus::step(0.0, 1.0));
  ckt.add_resistor("R1", in, a, 100.0);
  ckt.add_resistor("R2", a, b, 200.0);
  ckt.add_capacitor("C1", a, kGround, 1e-12);
  ckt.add_capacitor("C2", b, kGround, 2e-12);
  mna::MnaSystem mna(ckt);
  const auto out = mna.node_index(b);
  la::RealVector xh0(mna.dim(), 0.0);
  const auto ss = mna.solve(mna.rhs_at(1.0));
  for (std::size_t i = 0; i < xh0.size(); ++i) xh0[i] = -ss[i];
  MomentSequence seq(mna, xh0);
  const double elmore = 100.0 * 3e-12 + 200.0 * 2e-12;
  // mu_0 = -T_D * V (V = 1).
  EXPECT_NEAR(seq.mu(0, out), -elmore, 1e-20);
}

TEST(Moments, ActualPolesOfRcLadder) {
  // Symmetric 2-section RC ladder, R=1, C=1: poles at -(3 +- sqrt(5))/2.
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");
  ckt.add_vsource("V1", in, kGround, Stimulus::step(0.0, 1.0));
  ckt.add_resistor("R1", in, a, 1.0);
  ckt.add_resistor("R2", a, b, 1.0);
  ckt.add_capacitor("C1", a, kGround, 1.0);
  ckt.add_capacitor("C2", b, kGround, 1.0);
  mna::MnaSystem mna(ckt);
  const auto poles = actual_poles(mna);
  ASSERT_EQ(poles.size(), 2u);
  const double p1 = -(3.0 - std::sqrt(5.0)) / 2.0;
  const double p2 = -(3.0 + std::sqrt(5.0)) / 2.0;
  EXPECT_NEAR(poles[0].real(), p1, 1e-9);
  EXPECT_NEAR(poles[1].real(), p2, 1e-9);
}

TEST(Moments, ActualPolesSkipInfinite) {
  // The V-source branch contributes no finite pole; count must equal the
  // number of state variables (2 caps here), not the MNA dimension (4).
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");
  ckt.add_vsource("V1", in, kGround, Stimulus::step(0.0, 1.0));
  ckt.add_resistor("R1", in, a, 1.0);
  ckt.add_resistor("R2", a, b, 2.0);
  ckt.add_capacitor("C1", a, kGround, 3.0);
  ckt.add_capacitor("C2", b, kGround, 4.0);
  mna::MnaSystem mna(ckt);
  EXPECT_EQ(actual_poles(mna).size(), 2u);
}

TEST(Moments, ConsistentInitialValueNoJump) {
  RcFixture f(1e3, 1e-9, 5.0);
  MomentSequence seq(f.mna, f.xh0());
  EXPECT_FALSE(seq.has_jump(f.out));
  EXPECT_NEAR(seq.consistent_initial_value()[f.out], -5.0, 1e-5);
}

TEST(Moments, CapacitiveDividerJumpDetected) {
  // V -- C1 -- out -- C2 -- gnd, plus a large R to ground for a DC path:
  // a step on V jumps out instantaneously to V*C1/(C1+C2).
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("V1", in, kGround, Stimulus::step(0.0, 4.0));
  ckt.add_capacitor("C1", in, out, 1e-12);
  ckt.add_capacitor("C2", out, kGround, 3e-12);
  ckt.add_resistor("R1", out, kGround, 1e9);
  mna::MnaSystem mna(ckt);
  const auto idx = mna.node_index(out);
  // Steady state: out = 0 (C blocks DC).  xh0 = x0 - x_p = 0 - 0 = 0 at
  // out, but the transient initial value is the divider jump 1 V, so the
  // homogeneous part starts at +1 V (jump) and decays.
  la::RealVector xh0(mna.dim(), 0.0);
  const auto ss = mna.solve(mna.rhs_at(1.0));
  for (std::size_t i = 0; i < xh0.size(); ++i) xh0[i] = -ss[i];
  MomentSequence seq(mna, xh0);
  EXPECT_TRUE(seq.has_jump(idx));
  EXPECT_NEAR(seq.consistent_initial_value()[idx], 1.0, 1e-4);
}

TEST(Moments, SlopeLimitMatchesAnalytic) {
  // Single RC, step 0->5: x_h(t) = -5 e^{-t/tau};
  // slope at 0+ is +5/tau.
  const double tau = 1e-6;
  RcFixture f(1e3, 1e-9, 5.0);
  MomentSequence seq(f.mna, f.xh0());
  const double slope = -seq.mu(-2, f.out);  // mu_{-2} = -x_h'(0+)
  EXPECT_NEAR(slope, 5.0 / tau, 1e-2 * 5.0 / tau);
}

TEST(Moments, GammaEstimateNearDominantPole) {
  RcFixture f(1e3, 1e-9, 5.0);  // single pole at -1e6
  MomentSequence seq(f.mna, f.xh0());
  const double gamma = seq.gamma_estimate(f.out);
  EXPECT_NEAR(gamma, 1e6, 10.0);
}

TEST(Moments, DimensionMismatchThrows) {
  RcFixture f(1.0, 1.0, 1.0);
  EXPECT_THROW(MomentSequence(f.mna, la::RealVector(2, 0.0)),
               std::invalid_argument);
}

}  // namespace awesim::core
