// The design-scope static audit (src/audit): the seeded-defect corpus
// under netlists/bad/audit/ must each trip exactly its rule at the
// exact file:line:column; every shipping netlist must audit with zero
// Errors (the false-positive sweep); the conditioning oracle must flag
// the paper's Fig. 20/21 raw-instability setup (nonequilibrium ICs on
// the stiff fig16 tree) and recommend the order window the paper
// found; the graph tier, repetition tier, eligibility precheck, engine
// pre-flight, and the awesim_audit CLI all round-trip.  Registered
// under the ctest label "audit".
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "audit/design_netlist.h"
#include "audit/report_json.h"
#include "check/oracle.h"
#include "circuits/paper_circuits.h"
#include "core/engine.h"
#include "netlist/parser.h"
#include "obs/json.h"
#include "reduce/hier.h"
#include "reduce/reduce.h"
#include "timing/analyzer.h"
#include "timing/design_graph.h"
#include "util/random_circuits.h"

namespace awesim::audit {
namespace {

std::string corpus_path(const std::string& name) {
  return std::string(AWESIM_NETLIST_DIR) + "/bad/audit/" + name;
}

std::string netlist_dir() { return std::string(AWESIM_NETLIST_DIR); }

const core::Diagnostic* find_code(const AuditReport& report,
                                  core::DiagCode code) {
  for (const auto& d : report.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

/// Parse a corpus design netlist and audit it; the parse must succeed
/// (corpus files are well-formed, only semantically defective).
AuditReport audit_corpus(const std::string& name,
                         const AuditOptions& options = {}) {
  const DesignParse parse = parse_design_file(corpus_path(name));
  EXPECT_TRUE(parse.design.has_value())
      << name << ": " << core::to_string(parse.diagnostics);
  if (!parse.design) return {};
  return audit_design(*parse.design, options, &parse.sources);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A minimal connectivity-only net: R from the driver hookup to node
/// `pin`, C to ground, every listed sink attached at `pin`.
timing::Net tiny_net(std::string name, const std::vector<std::string>& sinks,
                     const std::string& pin = "a") {
  timing::Net net;
  net.name = std::move(name);
  net.parasitics.push_back(
      {timing::NetElement::Kind::Resistor, "DRV", pin, 100.0});
  net.parasitics.push_back(
      {timing::NetElement::Kind::Capacitor, pin, "0", 10e-15});
  for (const auto& sink : sinks) net.sink_node[sink] = pin;
  return net;
}

// ---------------------------------------------------------------------
// Corpus: each file trips exactly its seeded defect, at the exact card.

TEST(AuditCorpus, CombinationalCycleIsErrorWithFullLoopPath) {
  const AuditReport report = audit_corpus("comb_cycle.sp");
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.errors, 1u);
  const auto* d = find_code(report, core::DiagCode::CombinationalCycle);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Error);
  EXPECT_NE(d->message.find("g1 -> g2 -> g3 -> g1"), std::string::npos)
      << d->message;
  EXPECT_EQ(d->element, "g1");
  EXPECT_EQ(d->file, corpus_path("comb_cycle.sp"));
  EXPECT_EQ(d->line, 3u);  // the .gate g1 card
  EXPECT_EQ(d->column, 7u);
  ASSERT_EQ(report.graph.cycles.size(), 1u);
  EXPECT_EQ(report.graph.cycles[0].gates,
            (std::vector<std::string>{"g1", "g2", "g3"}));
}

TEST(AuditCorpus, UndrivenEndpointWarnsAtTheGateCard) {
  const AuditReport report = audit_corpus("undriven_endpoint.sp");
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.warnings, 1u);
  const auto* d = find_code(report, core::DiagCode::UndrivenEndpoint);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Warning);
  EXPECT_EQ(d->element, "u1");
  EXPECT_EQ(d->line, 3u);  // the .gate u1 card
  EXPECT_EQ(d->column, 7u);
}

TEST(AuditCorpus, FanoutBombWarnsAtTheNetCard) {
  const AuditReport report = audit_corpus("fanout_bomb.sp");
  EXPECT_TRUE(report.ok());
  const auto* d = find_code(report, core::DiagCode::FanoutExplosion);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Warning);
  EXPECT_EQ(d->element, "n_bomb");
  EXPECT_EQ(d->line, 4u);  // the .net card
  EXPECT_EQ(d->column, 10u);
  ASSERT_EQ(report.graph.fanout_explosions.size(), 1u);
  EXPECT_EQ(report.graph.fanout_explosions[0].fanout, 40u);
  // A higher threshold silences the rule.
  AuditOptions relaxed;
  relaxed.graph.fanout_threshold = 64;
  const AuditReport quiet = audit_corpus("fanout_bomb.sp", relaxed);
  EXPECT_EQ(find_code(quiet, core::DiagCode::FanoutExplosion), nullptr);
}

TEST(AuditCorpus, IllConditionedLadderTripsTheOracle) {
  const AuditReport report = audit_corpus("ill_conditioned_ladder.sp");
  EXPECT_TRUE(report.ok());
  const auto* d = find_code(report, core::DiagCode::ConditioningHazard);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Warning);
  EXPECT_EQ(d->element, "n_stiff");
  EXPECT_EQ(d->line, 5u);  // the .net card
  EXPECT_EQ(d->column, 10u);
  EXPECT_GT(d->condition_estimate, 1e30);
  const NetAssessment* stiff = nullptr;
  for (const auto& net : report.nets) {
    if (net.net == "n_stiff") stiff = &net;
  }
  ASSERT_NE(stiff, nullptr);
  EXPECT_TRUE(stiff->estimate.rc_tree);
  EXPECT_GT(stiff->estimate.spread, 1e7);  // ~8 decades of tau spread
  EXPECT_TRUE(stiff->estimate.hazard);
  EXPECT_EQ(stiff->estimate.min_safe_order, 1);
  EXPECT_EQ(stiff->estimate.max_safe_order, 1);
}

TEST(AuditCorpus, IsomorphicPairCollapsesToOneRepetitionGroup) {
  const AuditReport report = audit_corpus("iso_pair.sp");
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.warnings, 0u);
  const auto* d = find_code(report, core::DiagCode::RepeatedStructure);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Info);
  EXPECT_EQ(d->element, "n_a");
  EXPECT_EQ(d->line, 9u);  // the representative's .net card
  EXPECT_EQ(d->column, 9u);
  ASSERT_EQ(report.repeated.size(), 1u);
  EXPECT_EQ(report.repeated[0].representative, "n_a");
  EXPECT_EQ(report.repeated[0].members,
            (std::vector<std::string>{"n_a", "n_b"}));
  EXPECT_TRUE(report.near_misses.empty());
}

TEST(AuditCorpus, NearMissPairPointsAtTheDifferingCard) {
  const AuditReport report = audit_corpus("near_miss_pair.sp");
  EXPECT_TRUE(report.ok());
  const auto* d = find_code(report, core::DiagCode::NearDuplicate);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, core::Severity::Warning);
  EXPECT_EQ(d->element, "n_d");
  EXPECT_EQ(d->line, 20u);  // n_d's C2 card -- the one value that differs
  EXPECT_EQ(d->column, 1u);
  ASSERT_EQ(report.near_misses.size(), 1u);
  const NearMiss& miss = report.near_misses[0];
  EXPECT_EQ(miss.net_a, "n_c");
  EXPECT_EQ(miss.net_b, "n_d");
  EXPECT_EQ(miss.element_index, 3u);
  EXPECT_DOUBLE_EQ(miss.value_a, 1.2e-14);
  EXPECT_DOUBLE_EQ(miss.value_b, 1.3e-14);
  EXPECT_TRUE(report.repeated.empty());  // not an exact group
}

// ---------------------------------------------------------------------
// False-positive sweep: every shipping netlist audits with zero Errors.

TEST(AuditSweep, ShippingNetlistsAuditWithZeroErrors) {
  std::size_t swept = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(netlist_dir())) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".sp") continue;
    const std::string path = entry.path().string();
    const std::string text = read_file(path);
    AuditReport report;
    if (looks_like_design(text)) {
      const DesignParse parse = parse_design(text, path);
      ASSERT_TRUE(parse.design.has_value()) << path;
      report = audit_design(*parse.design, {}, &parse.sources);
    } else {
      const netlist::ParseResult parse = netlist::parse_collect(text, path);
      ASSERT_TRUE(parse.ok()) << path;
      report = audit_circuit(*parse.circuit, {}, path);
    }
    EXPECT_EQ(report.errors, 0u)
        << path << ":\n" << core::to_string(report.diagnostics);
    ++swept;
  }
  EXPECT_GE(swept, 3u);  // fig4, fig25, coupled_bus at minimum
}

TEST(AuditSweep, PaperCircuitsAuditWithZeroErrors) {
  const circuit::Circuit circuits[] = {
      circuits::fig4_rc_tree(), circuits::fig9_grounded_resistor(),
      circuits::fig16_mos_interconnect(), circuits::fig25_rlc_ladder()};
  for (const auto& c : circuits) {
    const AuditReport report = audit_circuit(c);
    EXPECT_EQ(report.errors, 0u) << core::to_string(report.diagnostics);
  }
}

// ---------------------------------------------------------------------
// The conditioning oracle vs the paper: Figs. 20/21 drive fig16's stiff
// tree from a 5 V nonequilibrium initial condition on C6; the q=1
// (Elmore) answer is ~150% off while q=2 lands at 0.65%.  The oracle
// must demand order >= 2 exactly when the ICs are nonequilibrium.

TEST(Oracle, Fig20NonequilibriumIcDemandsSecondOrder) {
  circuits::Drive drive;
  drive.rise_time = 1e-9;
  const circuit::Circuit hot = circuits::fig16_mos_interconnect(drive, 5.0);
  check::OracleOptions order1;
  order1.target_order = 1;
  const check::ConditioningEstimate est = check::assess_circuit(hot, order1);
  EXPECT_TRUE(est.nonequilibrium_ic);
  EXPECT_GE(est.min_safe_order, 2);
  EXPECT_TRUE(est.hazard);  // q=1 sits below the safe window
  // The same tree at equilibrium is happy with first order.
  const circuit::Circuit cold = circuits::fig16_mos_interconnect(drive, 0.0);
  const check::ConditioningEstimate calm =
      check::assess_circuit(cold, order1);
  EXPECT_FALSE(calm.nonequilibrium_ic);
  EXPECT_EQ(calm.min_safe_order, 1);
}

TEST(Oracle, SinglePoleCircuitIsPerfectlyConditioned) {
  const char* kRc = "V1 in 0 5\nR1 in out 1k\nC1 out 0 1p\n";
  const netlist::ParseResult parse = netlist::parse_collect(kRc);
  ASSERT_TRUE(parse.ok());
  const check::ConditioningEstimate est =
      check::assess_circuit(*parse.circuit);
  EXPECT_TRUE(est.rc_tree);
  EXPECT_EQ(est.tau_count, 1u);
  EXPECT_DOUBLE_EQ(est.spread, 1.0);
  EXPECT_NEAR(est.elmore_delay, 1e-9, 1e-12);
  EXPECT_NEAR(est.moment_ratio, 1.0, 1e-9);
  EXPECT_FALSE(est.hazard);
}

TEST(Oracle, HankelConditionGrowsAsSpreadToTheTwoQMinusTwo) {
  EXPECT_DOUBLE_EQ(check::hankel_condition(1.0, 4), 1.0);
  EXPECT_DOUBLE_EQ(check::hankel_condition(10.0, 2), 100.0);
  EXPECT_DOUBLE_EQ(check::hankel_condition(10.0, 3), 1e4);
  EXPECT_GT(check::hankel_condition(1e8, 3), 1e30);
  // Clamped, never infinite.
  EXPECT_LT(check::hankel_condition(1e200, 6), 1e301);
}

// ---------------------------------------------------------------------
// Graph tier on hand-built designs.

TEST(DesignGraph, IsolatedCycleIsBothCycleAndDeadLogic) {
  timing::Design d;
  d.add_gate({"in"});
  d.add_gate({"g1"});
  d.add_gate({"g2"});
  d.set_primary_input("in");
  d.add_net("in", tiny_net("n_in", {"out"}));
  d.add_net("g1", tiny_net("n1", {"g2"}));
  d.add_net("g2", tiny_net("n2", {"g1"}));
  const timing::GraphFindings f = timing::audit_graph(d);
  ASSERT_EQ(f.cycles.size(), 1u);
  EXPECT_EQ(f.cycles[0].gates, (std::vector<std::string>{"g1", "g2"}));
  // Neither cycle member has zero fan-in, so neither is "undriven" --
  // they are unreachable from every source instead.
  EXPECT_TRUE(f.undriven.empty());
  EXPECT_EQ(f.unreachable, (std::vector<std::string>{"g1", "g2"}));
}

TEST(DesignGraph, SinklessNetIsDroppedWork) {
  timing::Design d;
  d.add_gate({"in"});
  d.set_primary_input("in");
  d.add_net("in", tiny_net("n_dangling", {}));
  const timing::GraphFindings f = timing::audit_graph(d);
  EXPECT_EQ(f.sinkless_nets, (std::vector<std::string>{"n_dangling"}));
}

TEST(DesignGraph, ReconvergentDiamondCountsPaths) {
  // in -> {b, c} -> d: two source-to-pin paths into d.
  timing::Design d;
  d.add_gate({"in"});
  d.add_gate({"b"});
  d.add_gate({"c"});
  d.add_gate({"d"});
  d.set_primary_input("in");
  d.add_net("in", tiny_net("n0", {"b", "c"}));
  d.add_net("b", tiny_net("n1", {"d"}));
  d.add_net("c", tiny_net("n2", {"d"}));
  d.add_net("d", tiny_net("n3", {"out"}));
  timing::DesignGraphOptions options;
  options.reconvergence_paths = 2;
  const timing::GraphFindings f = timing::audit_graph(d, options);
  ASSERT_EQ(f.reconvergences.size(), 1u);
  EXPECT_EQ(f.reconvergences[0].gate, "d");
  EXPECT_EQ(f.reconvergences[0].paths, 2u);
  EXPECT_EQ(f.reconvergences[0].depth, 2u);
  // Default threshold (1024) stays quiet on a diamond.
  EXPECT_TRUE(timing::audit_graph(d).reconvergences.empty());
}

// ---------------------------------------------------------------------
// The analyzer pre-flight: a cyclic design now throws the typed record
// with the loop path; the escape hatch restores the legacy behavior.

TEST(Preflight, CyclicDesignThrowsTypedDiagnosticWithLoopPath) {
  timing::Design d;
  d.add_gate({"a"});
  d.add_gate({"b"});
  d.add_net("a", tiny_net("nab", {"b"}));
  d.add_net("b", tiny_net("nba", {"a"}));
  try {
    d.analyze({});
    FAIL() << "expected DiagnosticError";
  } catch (const core::DiagnosticError& e) {
    EXPECT_EQ(e.diagnostic().code, core::DiagCode::CombinationalCycle);
    EXPECT_NE(e.diagnostic().message.find("a -> b -> a"),
              std::string::npos)
        << e.diagnostic().message;
  }
  timing::AnalysisOptions legacy;
  legacy.preflight_audit = false;
  EXPECT_THROW(d.analyze(legacy), std::invalid_argument);
}

// ---------------------------------------------------------------------
// The engine pre-flight oracle (EngineOptions::preflight_audit):
// advisory, memoized, off by default.

constexpr const char* kStiffLadder =
    "V1 in 0 5\n"
    "R1 in a 1\n"
    "C1 a 0 1p\n"
    "R2 a b 100k\n"
    "C2 b 0 10n\n";

const core::Diagnostic* find_hazard(const core::Diagnostics& diags) {
  for (const auto& d : diags) {
    if (d.code == core::DiagCode::ConditioningHazard) return &d;
  }
  return nullptr;
}

TEST(EnginePreflight, AuditAnnotatesResultsWithoutChangingThem) {
  const netlist::ParseResult parse = netlist::parse_collect(kStiffLadder);
  ASSERT_TRUE(parse.ok());
  const circuit::NodeId out = parse.circuit->find_node("b");

  core::Engine plain(*parse.circuit);
  core::EngineOptions defaults;
  const core::Result base = plain.approximate(out, defaults);
  EXPECT_EQ(find_hazard(base.diagnostics), nullptr);  // off by default
  EXPECT_EQ(plain.stats().conditioning_hazards, 0u);

  core::Engine audited(*parse.circuit);
  core::EngineOptions with_audit;
  with_audit.preflight_audit = true;
  const core::Result r = audited.approximate(out, with_audit);
  const auto* hazard = find_hazard(r.diagnostics);
  ASSERT_NE(hazard, nullptr);
  EXPECT_EQ(hazard->severity, core::Severity::Warning);
  EXPECT_GT(hazard->condition_estimate, 1e14);
  EXPECT_EQ(audited.stats().conditioning_hazards, 1u);
  // Advisory only: the numbers are identical with and without.
  EXPECT_EQ(r.order_used, base.order_used);
  EXPECT_DOUBLE_EQ(r.approximation.value(1e-3),
                   base.approximation.value(1e-3));
  // Memoized: a second approximation re-annotates but re-counts nothing.
  const core::Result again = audited.approximate(out, with_audit);
  EXPECT_NE(find_hazard(again.diagnostics), nullptr);
  EXPECT_EQ(audited.stats().conditioning_hazards, 1u);
}

TEST(EnginePreflight, VerdictFollowsEachCallsOrder) {
  // Figs. 20/21: q=1 lies outside the oracle's safe window, q=2 inside.
  // One Engine, q=1 then q=2: only the q=1 result carries the hazard,
  // and a call that does not ask for the audit carries none.
  circuits::Drive drive;
  drive.rise_time = 1e-9;
  const circuit::Circuit ckt = circuits::fig16_mos_interconnect(drive, 5.0);
  const circuit::NodeId out = ckt.find_node("n6");
  core::Engine engine(ckt);
  core::EngineOptions q1;
  q1.order = 1;
  q1.preflight_audit = true;
  core::EngineOptions q2 = q1;
  q2.order = 2;

  EXPECT_NE(find_hazard(engine.approximate(out, q1).diagnostics), nullptr);
  EXPECT_EQ(find_hazard(engine.approximate(out, q2).diagnostics), nullptr);
  const std::vector<circuit::NodeId> outs{out};
  EXPECT_EQ(find_hazard(engine.approximate_all(outs, q2).results[0].diagnostics),
            nullptr);
  EXPECT_NE(find_hazard(engine.approximate_all(outs, q1).results[0].diagnostics),
            nullptr);
  core::EngineOptions unaudited = q1;
  unaudited.preflight_audit = false;
  EXPECT_EQ(find_hazard(engine.approximate(out, unaudited).diagnostics),
            nullptr);
  EXPECT_EQ(engine.stats().conditioning_hazards, 1u);
}

// ---------------------------------------------------------------------
// Eligibility precheck (tier-2 input, and the HierSession fast path).

TEST(Eligibility, ClassifiesTheRefusalLadder) {
  using reduce::Eligibility;
  const auto stage = timing::testutil::rc_line_design(11, 240);
  const timing::Net& big = stage.design.net_at(0);
  EXPECT_EQ(reduce::net_eligibility(big), Eligibility::Eligible);

  const auto small = timing::testutil::rc_line_design(7, 4);
  EXPECT_EQ(reduce::net_eligibility(small.design.net_at(0)),
            Eligibility::InteriorTooSmall);

  timing::Net rlc = big;
  rlc.parasitics.push_back(
      {timing::NetElement::Kind::Inductor, "DRV", "0", 1e-9});
  EXPECT_EQ(reduce::net_eligibility(rlc), Eligibility::NonRc);

  EXPECT_STREQ(reduce::to_string(Eligibility::Eligible), "eligible");
  EXPECT_STREQ(reduce::to_string(Eligibility::InteriorTooSmall),
               "interior-too-small");
  EXPECT_STREQ(reduce::to_string(Eligibility::NonRc), "non-rc");
}

TEST(Eligibility, HierSessionSkipsIneligibleNetsWithoutStoreTraffic) {
  const auto stage = timing::testutil::rc_line_design(7, 4);
  reduce::HierSession hier(stage.design);
  hier.analyze();
  const reduce::HierSession::Stats stats = hier.stats();
  EXPECT_EQ(stats.eligibility_skips, 1u);
  EXPECT_EQ(stats.reductions_performed, 0u);
  EXPECT_EQ(stats.nets_reduced, 0u);
}

// ---------------------------------------------------------------------
// The design-netlist parser: all-errors discipline with locations.

TEST(DesignNetlist, ParseErrorsCarryExactLocations) {
  const char* kBroken =
      ".gate g1 rdrive=1k cin=5f\n"
      ".input g1\n"
      ".net g1\n"           // missing net name
      "R1 DRV a nonsense\n"  // bad value
      ".endnet\n";
  const DesignParse parse = parse_design(kBroken, "broken.sp");
  EXPECT_FALSE(parse.design.has_value());
  ASSERT_GE(parse.diagnostics.size(), 2u);
  for (const auto& d : parse.diagnostics) {
    EXPECT_EQ(d.code, core::DiagCode::ParseError);
    EXPECT_EQ(d.file, "broken.sp");
    EXPECT_GT(d.line, 0u);
    EXPECT_GT(d.column, 0u);
  }
  EXPECT_EQ(parse.diagnostics[0].line, 3u);
  EXPECT_EQ(parse.diagnostics[1].line, 4u);
}

TEST(DesignNetlist, FlatSpiceIsNotADesign) {
  EXPECT_FALSE(looks_like_design("V1 in 0 5\nR1 in out 1k\n"));
  EXPECT_TRUE(looks_like_design("* header\n.GATE g1 rdrive=1k\n"));
}

/// "file:line:column" of a source-map lookup, or "-" when absent.
std::string where(const std::optional<circuit::SourceLoc>& loc) {
  if (!loc) return "-";
  return loc->file + ":" + std::to_string(loc->line) + ":" +
         std::to_string(loc->column);
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string dump_diagnostic(const core::Diagnostic& d) {
  return std::string(core::to_string(d.severity)) + " " +
         core::to_string(d.code) + " " + d.file + ":" +
         std::to_string(d.line) + ":" + std::to_string(d.column) + " [" +
         d.element + "] cond=" + hex(d.condition_estimate) + " " +
         d.message + "\n";
}

/// Every diagnostic of a parse, then (when a design came out) every
/// gate, net and element with its value in hex and its source-map
/// lookup, plus lookups that must miss.
std::string dump_parse(const DesignParse& parse) {
  std::string out;
  for (const auto& d : parse.diagnostics) out += "parse " + dump_diagnostic(d);
  if (!parse.design) return out + "no design\n";
  const timing::Design& design = *parse.design;
  for (const auto& [name, gate] : design.gates()) {
    out += "gate " + name + " " + hex(gate.drive_resistance) + " " +
           hex(gate.input_capacitance) + " " + hex(gate.intrinsic_delay) +
           " @ " + where(parse.sources.gate_loc(name)) + "\n";
  }
  for (const std::string& pi : design.primary_inputs()) {
    out += "input " + pi + "\n";
  }
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    const timing::Net& net = design.net_at(i);
    out += "net " + net.name + " driver " + design.net_driver(i) + " @ " +
           where(parse.sources.net_loc(net.name)) + "\n";
    for (std::size_t e = 0; e < net.parasitics.size(); ++e) {
      const timing::NetElement& el = net.parasitics[e];
      out += "  element " + std::to_string(e) + " kind " +
             std::to_string(static_cast<int>(el.kind)) + " " + el.node_a +
             " " + el.node_b + " " + hex(el.value) + " @ " +
             where(parse.sources.element_loc(net.name, e)) + "\n";
    }
    out += "  element " + std::to_string(net.parasitics.size()) + " @ " +
           where(parse.sources.element_loc(net.name,
                                           net.parasitics.size())) +
           "\n";
    for (const auto& [gate, node] : net.sink_node) {
      out += "  sink " + gate + " " + node + "\n";
    }
  }
  out += "gate <none> @ " + where(parse.sources.gate_loc("<none>")) + "\n";
  out += "net <none> @ " + where(parse.sources.net_loc("<none>")) + "\n";
  out += "element <none>/0 @ " +
         where(parse.sources.element_loc("<none>", 0)) + "\n";
  return out;
}

TEST(DesignNetlist, CrlfLineEndingsParseLikeLf) {
  const std::string lf =
      ".gate g1 rdrive=1k cin=5f\n"
      ".gate g2\n"
      ".input g1\n"
      ".net g1 n1\n"
      "R1 DRV a 1k\n"
      "C1 a 0 10f\n"
      ".sink g2 a\n"
      ".endnet\n";
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  const DesignParse a = parse_design(lf, "d.sp");
  const DesignParse b = parse_design(crlf, "d.sp");
  ASSERT_TRUE(a.design.has_value()) << core::to_string(a.diagnostics);
  EXPECT_EQ(dump_parse(a), dump_parse(b));
  EXPECT_EQ(where(b.sources.element_loc("n1", 1)), "d.sp:6:1");
  EXPECT_EQ(where(b.sources.net_loc("n1")), "d.sp:4:9");
  EXPECT_TRUE(looks_like_design(crlf));
}

TEST(DesignNetlist, TabVerticalTabAndFormFeedSeparateTokens) {
  const DesignParse parse = parse_design(
      ".gate\tg1\vrdrive=2k\n"
      ".input g1\n"
      "\f.net g1\tn1\n"
      "R1\tDRV\va\f3k\n"
      ".endnet\n",
      "ws.sp");
  ASSERT_TRUE(parse.design.has_value()) << core::to_string(parse.diagnostics);
  EXPECT_EQ(parse.design->gates().at("g1").drive_resistance, 2e3);
  ASSERT_EQ(parse.design->net_at(0).parasitics.size(), 1u);
  EXPECT_EQ(parse.design->net_at(0).parasitics[0].node_b, "a");
  EXPECT_EQ(parse.design->net_at(0).parasitics[0].value, 3e3);
  EXPECT_EQ(where(parse.sources.gate_loc("g1")), "ws.sp:1:7");
  EXPECT_EQ(where(parse.sources.net_loc("n1")), "ws.sp:3:10");
  EXPECT_EQ(where(parse.sources.element_loc("n1", 0)), "ws.sp:4:1");
}

TEST(DesignNetlist, StarStartsACommentOnlyAtATokenStart) {
  const DesignParse parse = parse_design(
      ".gate g1 * rdrive=nonsense is commented out\n"
      ".input g1\n"
      ".net g1 n1\n"
      "R1 DRV a*b 1k *R2 a 0 1k\n"
      "   * an indented comment line\n"
      ".endnet\n",
      "star.sp");
  ASSERT_TRUE(parse.design.has_value()) << core::to_string(parse.diagnostics);
  EXPECT_EQ(parse.design->gates().at("g1").drive_resistance, 1e3);
  ASSERT_EQ(parse.design->net_at(0).parasitics.size(), 1u);
  EXPECT_EQ(parse.design->net_at(0).parasitics[0].node_b, "a*b");
}

TEST(DesignNetlist, LastLineWithoutNewlineStillParses) {
  const DesignParse parse = parse_design(
      ".gate g1\n.input g1\n.net g1 n1\nR1 DRV a 1k\n.endnet", "eof.sp");
  ASSERT_TRUE(parse.design.has_value()) << core::to_string(parse.diagnostics);
  EXPECT_EQ(parse.design->net_count(), 1u);
  EXPECT_EQ(where(parse.sources.net_loc("n1")), "eof.sp:3:9");
  EXPECT_TRUE(looks_like_design(".gate g1"));
}

TEST(DesignNetlist, EmptyTextIsAnEmptyDesign) {
  const DesignParse parse = parse_design("", "empty.sp");
  EXPECT_TRUE(parse.diagnostics.empty());
  ASSERT_TRUE(parse.design.has_value());
  EXPECT_TRUE(parse.design->gates().empty());
  EXPECT_EQ(parse.design->net_count(), 0u);
  EXPECT_FALSE(looks_like_design(""));
  EXPECT_FALSE(looks_like_design("\n\n"));
}

TEST(DesignNetlist, UpperCaseEndStopsTheParse) {
  const DesignParse parse = parse_design(
      ".GATE g1\n.Input g1\n.NET g1 n1\nr1 DRV a 1K\n.EndNet\n.END\n"
      "garbage that would not parse\n",
      "end.sp");
  EXPECT_TRUE(parse.diagnostics.empty()) << core::to_string(parse.diagnostics);
  ASSERT_TRUE(parse.design.has_value());
  EXPECT_EQ(parse.design->net_at(0).parasitics[0].value, 1e3);
  // looks_like_design scans the whole text, past any .end.
  EXPECT_TRUE(looks_like_design("R1 a b 1k\n.END\n.gate g1\n"));
}

TEST(DesignNetlist, UnclosedNetAtEofIsReportedOnTheLastLine) {
  const DesignParse parse = parse_design(
      ".gate g1\n.input g1\n.net g1 n1\nR1 DRV a 1k\n\n", "open.sp");
  EXPECT_FALSE(parse.design.has_value());
  ASSERT_EQ(parse.diagnostics.size(), 1u);
  EXPECT_EQ(dump_diagnostic(parse.diagnostics[0]),
            "error parse-error open.sp:5:1 [] cond=-0x1p+0 "
            "missing .endnet for 'n1'\n");
  // The net is still closed into the source map.
  EXPECT_EQ(where(parse.sources.net_loc("n1")), "open.sp:3:9");
  EXPECT_EQ(where(parse.sources.element_loc("n1", 0)), "open.sp:4:1");
}

TEST(DesignNetlist, EveryDirectiveErrorKeepsItsMessageAndColumn) {
  const DesignParse parse = parse_design(
      ".gate\n"
      ".gate g1 rdrive=1k Cin=2f bogus speed=1 delay=1x\n"
      ".gate g1\n"
      ".input\n"
      ".input ghost\n"
      ".sink g1 a\n"
      ".endnet\n"
      "R9 a b 1k\n"
      ".net g1\n"
      ".net g1 n1\n"
      "Q1 DRV a 1k\n"
      "R1 DRV a\n"
      "R2 DRV a 1q\n"
      ".sink g1\n"
      ".net zz n2\n"
      ".endnet\n"
      ".net g1 n1\n"
      ".wat\n",
      "errs.sp");
  std::string got;
  for (const auto& d : parse.diagnostics) got += dump_diagnostic(d);
  const char* kExpected =
      "error parse-error errs.sp:1:1 [] cond=-0x1p+0 .gate needs a name\n"
      "error parse-error errs.sp:2:27 [] cond=-0x1p+0 "
      ".gate parameter is not key=value: 'bogus'\n"
      "error parse-error errs.sp:2:33 [] cond=-0x1p+0 "
      "unknown .gate parameter 'speed'\n"
      "error parse-error errs.sp:2:47 [] cond=-0x1p+0 "
      "parse_value: bad suffix in '1x'\n"
      "error parse-error errs.sp:3:7 [] cond=-0x1p+0 duplicate gate 'g1'\n"
      "error parse-error errs.sp:4:1 [] cond=-0x1p+0 "
      ".input needs a gate name\n"
      "error parse-error errs.sp:6:1 [] cond=-0x1p+0 "
      ".sink outside .net/.endnet\n"
      "error parse-error errs.sp:7:1 [] cond=-0x1p+0 .endnet without .net\n"
      "error parse-error errs.sp:8:1 [] cond=-0x1p+0 "
      "element card outside .net/.endnet: 'R9'\n"
      "error parse-error errs.sp:9:1 [] cond=-0x1p+0 "
      ".net needs DRIVER and NETNAME\n"
      "error parse-error errs.sp:11:1 [] cond=-0x1p+0 "
      "unknown element card 'Q1' (design nets take R/C/L only)\n"
      "error parse-error errs.sp:12:1 [] cond=-0x1p+0 "
      "element card needs NAME NODE NODE VALUE\n"
      "error parse-error errs.sp:13:10 [] cond=-0x1p+0 "
      "parse_value: bad suffix in '1q'\n"
      "error parse-error errs.sp:14:1 [] cond=-0x1p+0 "
      ".sink needs GATE and NODE\n"
      "error parse-error errs.sp:15:1 [] cond=-0x1p+0 "
      ".net before .endnet of 'n1'\n"
      "error parse-error errs.sp:17:9 [] cond=-0x1p+0 duplicate net 'n1'\n"
      "error parse-error errs.sp:18:1 [] cond=-0x1p+0 "
      "unknown directive '.wat'\n"
      "error parse-error errs.sp:5:8 [] cond=-0x1p+0 "
      ".input names unknown gate 'ghost'\n"
      "error parse-error errs.sp:15:9 [] cond=-0x1p+0 "
      ".net driver 'zz' is not a gate\n";
  EXPECT_EQ(got, kExpected);
  EXPECT_FALSE(parse.design.has_value());
}

// Golden dump over the audit corpus: every parse and audit diagnostic
// (severity, code, file:line:column, element, message) and every
// source-map lookup, byte for byte.  On a mismatch the actual dump is
// written next to the test's temp files for diffing.
TEST(DesignNetlist, AuditCorpusGoldenDump) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(
           netlist_dir() + "/bad/audit")) {
    if (entry.path().extension() == ".sp") {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  ASSERT_GE(names.size(), 6u);
  std::string got;
  for (const std::string& name : names) {
    const std::string file = "netlists/bad/audit/" + name;
    const DesignParse parse = parse_design(read_file(corpus_path(name)), file);
    got += "== " + file + "\n" + dump_parse(parse);
    if (!parse.design) continue;
    const AuditReport report =
        audit_design(*parse.design, {}, &parse.sources);
    for (const auto& d : report.diagnostics) {
      got += "audit " + dump_diagnostic(d);
    }
  }
  const std::string golden_path =
      std::string(AWESIM_GOLDEN_DIR) + "/design_netlist_audit.txt";
  const std::string golden = read_file(golden_path);
  if (got != golden) {
    const std::string actual = testing::TempDir() + "design_netlist_audit.txt";
    std::ofstream(actual) << got;
    ADD_FAILURE() << "dump differs from " << golden_path << "; actual in "
                  << actual;
  }
}

// ---------------------------------------------------------------------
// The standalone CLI: exit codes and --json round-trip.

TEST(AuditCli, ExitCodesFollowTheSeverityContract) {
  const struct {
    const char* file;
    int exit_code;
  } cases[] = {
      {"comb_cycle.sp", 2},        // errors
      {"undriven_endpoint.sp", 1}, // warnings only
      {"iso_pair.sp", 0},          // infos only
  };
  for (const auto& c : cases) {
    const std::string cmd = std::string(AWESIM_AUDIT_BIN) + " " +
                            corpus_path(c.file) + " > /dev/null";
    const int rc = std::system(cmd.c_str());
    ASSERT_NE(rc, -1);
    EXPECT_EQ(WEXITSTATUS(rc), c.exit_code) << c.file;
  }
}

TEST(AuditCli, JsonOutputRoundTripsThroughObsParser) {
  const std::string out_path =
      testing::TempDir() + "awesim_audit_roundtrip.json";
  const std::string cmd = std::string(AWESIM_AUDIT_BIN) + " --json=" +
                          out_path + " " + corpus_path("near_miss_pair.sp");
  const int rc = std::system(cmd.c_str());
  ASSERT_NE(rc, -1);
  EXPECT_EQ(WEXITSTATUS(rc), 1);

  const obs::json::Value doc = obs::json::parse(read_file(out_path));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema_version")->as_number(),
            double(kAuditSchemaVersion));
  EXPECT_EQ(doc.find("tool")->as_string(), "awesim_audit");
  const obs::json::Value* files = doc.find("files");
  ASSERT_NE(files, nullptr);
  ASSERT_EQ(files->size(), 1u);
  const obs::json::Value& file = files->at(0);
  EXPECT_TRUE(file.find("ok")->as_bool());
  EXPECT_EQ(file.find("errors")->as_number(), 0.0);
  EXPECT_EQ(file.find("warnings")->as_number(), 1.0);
  const obs::json::Value* misses = file.find("near_misses");
  ASSERT_NE(misses, nullptr);
  ASSERT_EQ(misses->size(), 1u);
  const obs::json::Value& miss = misses->at(0);
  EXPECT_EQ(miss.find("net_a")->as_string(), "n_c");
  EXPECT_EQ(miss.find("net_b")->as_string(), "n_d");
  EXPECT_EQ(miss.find("element_index")->as_number(), 3.0);
  bool found = false;
  const obs::json::Value* diags = file.find("diagnostics");
  ASSERT_NE(diags, nullptr);
  for (std::size_t i = 0; i < diags->size(); ++i) {
    const obs::json::Value& d = diags->at(i);
    if (d.find("code")->as_string() != "near-duplicate") continue;
    found = true;
    EXPECT_EQ(d.find("severity")->as_string(), "warning");
    EXPECT_EQ(d.find("line")->as_number(), 20.0);
    EXPECT_EQ(d.find("column")->as_number(), 1.0);
  }
  EXPECT_TRUE(found);
  std::remove(out_path.c_str());
}

TEST(AuditCli, CleanFlatNetlistExitsZero) {
  const std::string cmd = std::string(AWESIM_AUDIT_BIN) + " " +
                          netlist_dir() + "/fig4_rc_tree.sp > /dev/null";
  const int rc = std::system(cmd.c_str());
  ASSERT_NE(rc, -1);
  EXPECT_EQ(WEXITSTATUS(rc), 0);
}

}  // namespace
}  // namespace awesim::audit
