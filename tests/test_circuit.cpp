// Circuit model and stimulus descriptions.
#include <gtest/gtest.h>

#include <string>

#include "circuit/circuit.h"

namespace awesim::circuit {

TEST(Stimulus, DcIsFlat) {
  const auto s = Stimulus::dc(3.3);
  EXPECT_EQ(s.value(-1.0), 3.3);
  EXPECT_EQ(s.value(100.0), 3.3);
  EXPECT_EQ(s.slope_after(0.0), 0.0);
  EXPECT_FALSE(s.has_unbounded_ramp());
  EXPECT_EQ(s.final_value(), 3.3);
}

TEST(Stimulus, StepJumpsAtDelay) {
  const auto s = Stimulus::step(1.0, 5.0, 2.0);
  EXPECT_EQ(s.value(1.999), 1.0);
  EXPECT_EQ(s.value(2.0), 5.0);
  EXPECT_EQ(s.final_value(), 5.0);
  EXPECT_EQ(s.last_breakpoint(), 2.0);
}

TEST(Stimulus, RampStepIsPiecewiseLinear) {
  const auto s = Stimulus::ramp_step(0.0, 4.0, 2.0, 1.0);
  EXPECT_EQ(s.value(0.5), 0.0);
  EXPECT_NEAR(s.value(2.0), 2.0, 1e-12);  // halfway up
  EXPECT_NEAR(s.value(3.0), 4.0, 1e-12);
  EXPECT_NEAR(s.value(10.0), 4.0, 1e-12);
  EXPECT_EQ(s.slope_after(1.5), 2.0);
  EXPECT_EQ(s.slope_after(4.0), 0.0);
}

TEST(Stimulus, RampStepZeroRiseIsStep) {
  const auto s = Stimulus::ramp_step(0.0, 4.0, 0.0);
  EXPECT_EQ(s.value(0.0), 4.0);
  EXPECT_EQ(s.value(-0.1), 0.0);
}

TEST(Stimulus, PwlInterpolatesAndClamps) {
  const auto s = Stimulus::pwl({{0.0, 0.0}, {1.0, 2.0}, {2.0, -1.0}});
  EXPECT_NEAR(s.value(0.5), 1.0, 1e-12);
  EXPECT_NEAR(s.value(1.5), 0.5, 1e-12);
  EXPECT_NEAR(s.value(5.0), -1.0, 1e-12);
  EXPECT_EQ(s.value(-1.0), 0.0);
  EXPECT_FALSE(s.has_unbounded_ramp());
  EXPECT_NEAR(s.final_value(), -1.0, 1e-12);
}

TEST(Stimulus, PwlRejectsNonIncreasingTimes) {
  EXPECT_THROW(Stimulus::pwl({{1.0, 0.0}, {1.0, 2.0}}),
               std::invalid_argument);
  EXPECT_THROW(Stimulus::pwl({}), std::invalid_argument);
}

TEST(Circuit, NodeNamesAndAliases) {
  Circuit ckt;
  EXPECT_EQ(ckt.node("0"), kGround);
  EXPECT_EQ(ckt.node("gnd"), kGround);
  EXPECT_EQ(ckt.node("GND"), kGround);
  const auto a = ckt.node("a");
  EXPECT_EQ(ckt.node("a"), a);  // idempotent
  EXPECT_EQ(ckt.find_node("a"), a);
  EXPECT_EQ(ckt.node_name(a), "a");
  EXPECT_THROW(ckt.find_node("missing"), std::out_of_range);
  EXPECT_EQ(ckt.node_count(), 2u);
}

TEST(Circuit, FindElement) {
  Circuit ckt;
  ckt.add_resistor("R1", ckt.node("a"), kGround, 5.0);
  ASSERT_NE(ckt.find_element("R1"), nullptr);
  EXPECT_EQ(ckt.find_element("R1")->value, 5.0);
  EXPECT_EQ(ckt.find_element("R2"), nullptr);
}

TEST(Circuit, ValidateCatchesSelfLoop) {
  Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add_resistor("R1", a, a, 1.0);
  EXPECT_THROW(ckt.validate(), std::invalid_argument);
}

TEST(Circuit, ValidateCatchesNonPositiveValues) {
  Circuit ckt;
  ckt.add_capacitor("C1", ckt.node("a"), kGround, 0.0);
  EXPECT_THROW(ckt.validate(), std::invalid_argument);
}

TEST(Circuit, ValidateCatchesControlledSourceTargets) {
  Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add_resistor("Rc", a, kGround, 1.0);
  ckt.add_cccs("F1", a, kGround, "Rc", 2.0);  // control must be V or L
  EXPECT_THROW(ckt.validate(), std::invalid_argument);
}

TEST(Circuit, InitialConditions) {
  Circuit ckt;
  const auto a = ckt.node("a");
  ckt.set_initial_node_voltage(a, 2.5);
  EXPECT_EQ(ckt.initial_node_voltages().at(a), 2.5);
  EXPECT_THROW(ckt.set_initial_node_voltage(kGround, 1.0),
               std::invalid_argument);
}

TEST(Circuit, ElementIcStorage) {
  Circuit ckt;
  const auto a = ckt.node("a");
  const auto& c = ckt.add_capacitor("C1", a, kGround, 1e-12, 1.8);
  EXPECT_TRUE(c.initial_condition.has_value());
  EXPECT_EQ(*c.initial_condition, 1.8);
  const auto& l = ckt.add_inductor("L1", a, kGround, 1e-9);
  EXPECT_FALSE(l.initial_condition.has_value());
}


TEST(Circuit, ValidateCatchesDanglingNode) {
  Circuit ckt;
  ckt.add_resistor("R1", ckt.node("a"), kGround, 1.0);
  ckt.node("orphan");  // registered but never used
  EXPECT_THROW(ckt.validate(), std::invalid_argument);
}

// With several faults present, validate throws the first one in a fixed
// order: dangling nodes by id, then the elements in order (name, value,
// control target, self-short).  Exact messages.
TEST(Circuit, ValidateThrowsTheFirstErrorWithItsMessage) {
  const auto message = [](const Circuit& ckt) -> std::string {
    try {
      ckt.validate();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "valid";
  };
  {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    ckt.node("d1");
    ckt.node("d2");
    ckt.add_resistor("R1", a, kGround, 1.0);
    ckt.add_resistor("R1", a, kGround, -1.0);
    EXPECT_EQ(message(ckt),
              "Circuit: node 'd1' is not connected to any element");
  }
  {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    ckt.add_resistor("R1", a, kGround, 1.0);
    ckt.add_capacitor("C1", a, a, 0.0);
    ckt.add_resistor("R1", a, kGround, 2.0);
    EXPECT_EQ(message(ckt), "Circuit: element 'C1' must have a positive value");
  }
  {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    ckt.add_resistor("R1", a, kGround, 1.0);
    ckt.add_resistor("R2", a, a, 1.0);
    ckt.add_resistor("R1", a, kGround, 2.0);
    EXPECT_EQ(message(ckt), "Circuit: element 'R2' shorts a node to itself");
  }
  {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    ckt.add_resistor("R1", a, kGround, 1.0);
    ckt.add_resistor("R1", a, kGround, 2.0);
    ckt.add_resistor("", a, kGround, 2.0);
    EXPECT_EQ(message(ckt), "Circuit: duplicate element name 'R1'");
  }
  {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    ckt.add_resistor("", a, kGround, 2.0);
    EXPECT_EQ(message(ckt), "Circuit: element with empty name");
  }
  {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    ckt.add_cccs("F1", a, kGround, "Vx", 2.0);
    ckt.add_resistor("R1", a, kGround, 1.0);
    EXPECT_EQ(message(ckt),
              "Circuit: 'F1' references unknown control source 'Vx'");
    ckt.add_ccvs("H1", a, kGround, "R1", 2.0);
  }
  {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    ckt.add_resistor("R1", a, kGround, 1.0);
    ckt.add_ccvs("H1", a, kGround, "R1", 2.0);
    EXPECT_EQ(message(ckt),
              "Circuit: 'H1' control element must be a voltage source or "
              "inductor");
  }
  {
    // A node id outside the registry touches nothing and is not itself
    // an error here; the registered nodes decide.
    Circuit ckt;
    const NodeId a = ckt.node("a");
    ckt.add_resistor("R1", a, kGround, 1.0);
    ckt.add_resistor("R2", a, 42, 1.0);
    ckt.add_resistor("R3", a, -3, 1.0);
    EXPECT_EQ(message(ckt), "valid");
    ckt.node("b");
    EXPECT_EQ(message(ckt), "Circuit: node 'b' is not connected to any element");
  }
}

}  // namespace awesim::circuit
