// Consistent t=0+ initialization from the t=0+ circuit (eq. 8): ramp
// drives cost no factorization beyond G's, capacitive division and
// algebraic jumps are exact, the initial slope of an RLC response comes
// from the same factor, and a t=0+ circuit that does not fix the state
// yields a typed diagnostic instead of an exception.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "core/engine.h"
#include "core/moments.h"
#include "mna/system.h"

namespace awesim::core {
namespace {

using circuit::Circuit;
using circuit::kGround;
using circuit::NodeId;
using circuit::Stimulus;

// The homogeneous initial vector of a step applied at t=0 to a circuit
// at rest: x_h0 = -x_p, the final DC state.
la::RealVector step_xh0(const mna::MnaSystem& mna) {
  la::RealVector xh0 = mna.solve(mna.rhs_at(1.0));
  for (double& v : xh0) v = -v;
  return xh0;
}

bool has_code(const Result& r, DiagCode code) {
  for (const Diagnostic& d : r.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

// A driver resistor into a 12-node RC tree (two branches of six).
Circuit rc_tree(std::vector<NodeId>* sinks) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId root = ckt.node("root");
  ckt.add_vsource("V1", in, kGround, Stimulus::ramp_step(0.0, 1.0, 1e-10));
  ckt.add_resistor("Rd", in, root, 200.0);
  ckt.add_capacitor("Cr", root, kGround, 5e-15);
  for (int b = 0; b < 2; ++b) {
    NodeId prev = root;
    for (int k = 0; k < 6; ++k) {
      const std::string tag = std::to_string(b) + "_" + std::to_string(k);
      const NodeId node = ckt.node("n" + tag);
      ckt.add_resistor("R" + tag, prev, node, 50.0 + 10.0 * k + 7.0 * b);
      ckt.add_capacitor("C" + tag, node, kGround, 2e-15 + 1e-15 * k);
      prev = node;
    }
    sinks->push_back(prev);
  }
  return ckt;
}

// A 3x4 resistive grid (loops) driven at one corner.
Circuit rc_mesh(std::vector<NodeId>* sinks) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  ckt.add_vsource("V1", in, kGround, Stimulus::ramp_step(0.0, 1.0, 1e-10));
  std::vector<NodeId> grid;
  for (int i = 0; i < 12; ++i) {
    grid.push_back(ckt.node("g" + std::to_string(i)));
    ckt.add_capacitor("C" + std::to_string(i), grid.back(), kGround,
                      1e-15 * (1 + i % 3));
  }
  ckt.add_resistor("Rd", in, grid[0], 100.0);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) {
      const int i = r * 4 + c;
      if (c + 1 < 4) {
        ckt.add_resistor("Rh" + std::to_string(i), grid[i], grid[i + 1],
                         40.0 + i);
      }
      if (r + 1 < 3) {
        ckt.add_resistor("Rv" + std::to_string(i), grid[i], grid[i + 4],
                         60.0 + i);
      }
    }
  }
  sinks->push_back(grid[11]);
  sinks->push_back(grid[7]);
  return ckt;
}

}  // namespace

TEST(InitialState, RampDrivenTreeStageFactorsOnce) {
  std::vector<NodeId> sinks;
  const Circuit ckt = rc_tree(&sinks);
  Engine engine(ckt);
  const BatchResult batch = engine.approximate_all(sinks, EngineOptions{});
  ASSERT_EQ(batch.results.size(), sinks.size());
  for (const Result& r : batch.results) {
    EXPECT_TRUE(r.stable);
    EXPECT_FALSE(has_code(r, DiagCode::SingularPivot));
  }
  EXPECT_EQ(engine.stats().factorizations, 1u);
}

TEST(InitialState, RampDrivenMeshStageFactorsOnce) {
  std::vector<NodeId> sinks;
  const Circuit ckt = rc_mesh(&sinks);
  Engine engine(ckt);
  const BatchResult batch = engine.approximate_all(sinks, EngineOptions{});
  ASSERT_EQ(batch.results.size(), sinks.size());
  for (const Result& r : batch.results) {
    EXPECT_TRUE(r.stable);
  }
  EXPECT_EQ(engine.stats().factorizations, 1u);
}

TEST(InitialState, RampAtomsMeetTheConstraintsExactly) {
  // No jump means x_h(0+) is x_h0 itself, bit for bit.
  std::vector<NodeId> sinks;
  const Circuit ckt = rc_tree(&sinks);
  mna::MnaSystem mna(ckt);
  const la::RealVector slope = mna.solve(mna.events().front().slope_change);
  la::RealVector rhs = mna.apply_C(slope);
  for (double& v : rhs) v = -v;
  la::RealVector xh0 = mna.solve(rhs);
  for (double& v : xh0) v = -v;
  MomentSequence seq(mna, xh0);
  EXPECT_EQ(seq.consistent_initial_value(), xh0);
  EXPECT_EQ(mna.solve_stats().factorizations, 1u);
}

TEST(InitialState, StepDrivenCapacitiveDividerIsExact) {
  // V -- C1 -- out -- C2 -- gnd (R to ground for a DC path): a step of
  // 4 V jumps out to 4 C1/(C1+C2) at t=0+ through the source's impulse.
  const double c1 = 1.3e-12;
  const double c2 = 2.9e-12;
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  ckt.add_vsource("V1", in, kGround, Stimulus::step(0.0, 4.0));
  ckt.add_capacitor("C1", in, out, c1);
  ckt.add_capacitor("C2", out, kGround, c2);
  ckt.add_resistor("R1", out, kGround, 1e9);
  mna::MnaSystem mna(ckt);
  MomentSequence seq(mna, step_xh0(mna));
  const std::size_t idx = mna.node_index(out);
  const double want = 4.0 * c1 / (c1 + c2);
  EXPECT_TRUE(seq.has_jump(idx));
  EXPECT_NEAR(seq.consistent_initial_value()[idx], want, 1e-14 * want);
  // The driven node follows its source exactly.
  EXPECT_NEAR(seq.consistent_initial_value()[mna.node_index(in)], 0.0,
              1e-14);
  EXPECT_FALSE(seq.initialization_diagnostic().has_value());
  // G once, the t=0+ system once.
  EXPECT_EQ(mna.solve_stats().factorizations, 2u);

  Engine engine(ckt);
  const Result r = engine.approximate(out, EngineOptions{});
  EXPECT_NEAR(r.approximation.value(0.0), want, 1e-12 * want);
}

TEST(InitialState, CapacitorAcrossVoltageSourceJumpsWithIt) {
  // C1 directly across the source: the source charges it through an
  // impulse, so "in" steps to 2 V at t=0+ while "out" (behind R) holds.
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  ckt.add_vsource("V1", in, kGround, Stimulus::step(0.0, 2.0));
  ckt.add_capacitor("C1", in, kGround, 1e-12);
  ckt.add_resistor("R1", in, out, 1e3);
  ckt.add_capacitor("C2", out, kGround, 1e-12);
  mna::MnaSystem mna(ckt);
  const la::RealVector xh0 = step_xh0(mna);
  MomentSequence seq(mna, xh0);
  EXPECT_TRUE(seq.has_jump(mna.node_index(in)));
  EXPECT_NEAR(seq.consistent_initial_value()[mna.node_index(in)], 0.0, 1e-14);
  EXPECT_FALSE(seq.has_jump(mna.node_index(out)));
  EXPECT_FALSE(seq.initialization_diagnostic().has_value());

  Engine engine(ckt);
  Result r;
  ASSERT_NO_THROW(r = engine.approximate(in, EngineOptions{}));
  EXPECT_FALSE(has_code(r, DiagCode::SingularPivot));
  EXPECT_NEAR(r.approximation.value(0.0), 2.0, 1e-12);
}

TEST(InitialState, RlcAlgebraicJumpAndInitialSlope) {
  // V -- R -- a -- L -- out -- C -- gnd, step 0 -> 1 V.  The inductor
  // current and capacitor voltage hold at t=0+; node a (no capacitance)
  // jumps to the source value, and di/dt(0+) = (v_a - v_out)/L = 1/L.
  const double l = 2e-9;
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId a = ckt.node("a");
  const NodeId out = ckt.node("out");
  ckt.add_vsource("V1", in, kGround, Stimulus::step(0.0, 1.0));
  ckt.add_resistor("R1", in, a, 10.0);
  ckt.add_inductor("L1", a, out, l);
  ckt.add_capacitor("C1", out, kGround, 1e-12);
  mna::MnaSystem mna(ckt);
  MomentSequence seq(mna, step_xh0(mna));
  const std::size_t ia = mna.node_index(a);
  const std::size_t iout = mna.node_index(out);
  const std::size_t il = *mna.branch_index("L1");
  // x_h = x - x_p with x_p = 1 V everywhere, 0 A.
  EXPECT_TRUE(seq.has_jump(ia));
  EXPECT_NEAR(seq.consistent_initial_value()[ia], 0.0, 1e-14);
  EXPECT_FALSE(seq.has_jump(iout));
  EXPECT_NEAR(seq.consistent_initial_value()[iout], -1.0, 1e-14);
  EXPECT_NEAR(seq.consistent_initial_value()[il], 0.0, 1e-20);
  // mu_{-2} = -x_h'(0+).
  EXPECT_NEAR(seq.mu(-2, il), -1.0 / l, 1e-12 / l);
  EXPECT_NEAR(seq.mu(-2, iout), 0.0, 1e-12 / l);
  EXPECT_EQ(mna.solve_stats().factorizations, 2u);
}

TEST(InitialState, UndeterminedInitialStateIsADiagnosticNotAThrow) {
  // V1 sits between two capacitive nodes, so its current is an impulse
  // at the step -- and F1 copies that impulse into node c, which has no
  // capacitance: no finite t=0+ state exists.
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  const NodeId c = ckt.node("c");
  ckt.add_vsource("V1", a, b, Stimulus::step(0.0, 1.0));
  ckt.add_capacitor("Ca", a, kGround, 1e-12);
  ckt.add_capacitor("Cb", b, kGround, 2e-12);
  ckt.add_resistor("Ra", a, kGround, 1e3);
  ckt.add_resistor("Rb", b, kGround, 1e3);
  ckt.add_cccs("F1", c, kGround, "V1", 2.0);
  ckt.add_resistor("Rc", c, kGround, 1e3);
  mna::MnaSystem mna(ckt);
  const la::RealVector xh0 = step_xh0(mna);
  MomentSequence seq(mna, xh0);
  EXPECT_EQ(seq.consistent_initial_value(), xh0);
  ASSERT_TRUE(seq.initialization_diagnostic().has_value());
  EXPECT_EQ(seq.initialization_diagnostic()->code, DiagCode::SingularPivot);
  EXPECT_TRUE(std::isnan(seq.mu(-2, mna.node_index(c))));

  Engine engine(ckt);
  Result r;
  ASSERT_NO_THROW(r = engine.approximate(a, EngineOptions{}));
  EXPECT_TRUE(has_code(r, DiagCode::SingularPivot));
}

}  // namespace awesim::core
