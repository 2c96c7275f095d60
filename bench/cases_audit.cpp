// The static-audit case of the unified runner:
//
//   * audit.mega_10k (quick tier): the full three-tier audit (graph
//     rules, conditioning oracle, repetition analysis) over a generated
//     10,000-net mesh fabric (100 interior nodes per cell, 8 repeated
//     variants -- 1M interconnect nodes total), against a cold flat
//     analysis of the same design as the reference.  The contract is
//     that the pre-flight is nearly free: the audit must cost under 5%
//     of the cold analysis it runs ahead of (the "speedup" column
//     reads as cold-analysis-time / audit-time, so the gate is
//     speedup >= 20).  The margin comes from the oracle-call dedup
//     across isomorphic nets: 10k nets cost 8 oracle runs.
//   * audit.parse_design (quick tier): the design-netlist front end
//     alone, on ~2 MB of .gate/.net text written from a generated RC-tree
//     design.  The extra `mb_per_s` is the text size over the median
//     parse time; the accuracy gate is that the parse yields a design
//     with exactly the generated element count.
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "audit/design_netlist.h"
#include "cases.h"
#include "harness.h"
#include "reduce/generate.h"
#include "timing/analyzer.h"

namespace awesim::bench {

namespace {

struct AuditState {
  timing::Design design;
  audit::AuditReport report;
  timing::TimingReport flat_report;
};

BenchCase mega_audit_case(std::string name, std::size_t target_nets,
                          bool quick_tier) {
  BenchCase c;
  c.name = std::move(name);
  c.paper_ref = "Section 4 (conditioning limits; pre-flight screening)";
  c.problem_size = target_nets;
  c.quick_tier = quick_tier;
  c.prepare = [target_nets] {
    reduce::MegaSpec spec;
    spec.style = reduce::MegaSpec::Style::Mesh;
    spec.cell_nodes = 100;
    spec.target_nodes = target_nets * spec.cell_nodes;
    spec.variants = 8;
    spec.seed = 1;
    auto state = std::make_shared<AuditState>();
    state->design = reduce::mega_design(spec);
    PreparedCase p;
    p.run = [state] {
      state->report = audit::audit_design(state->design);
    };
    p.reference = [state] {
      state->flat_report = state->design.analyze();
    };
    p.extra = [state] {
      std::vector<std::pair<std::string, double>> extra;
      extra.emplace_back("errors", static_cast<double>(state->report.errors));
      extra.emplace_back("warnings",
                         static_cast<double>(state->report.warnings));
      extra.emplace_back("infos", static_cast<double>(state->report.infos));
      extra.emplace_back("nets_assessed",
                         static_cast<double>(state->report.nets.size()));
      extra.emplace_back("repetition_groups",
                         static_cast<double>(state->report.repeated.size()));
      return extra;
    };
    return p;
  };
  return c;
}

/// The design as .gate/.net netlist text, values to full precision.
std::string design_text(const timing::Design& design) {
  std::string out;
  char num[32];
  const auto value = [&num](double v) {
    std::snprintf(num, sizeof num, "%.17g", v);
    return std::string(num);
  };
  for (const auto& [name, gate] : design.gates()) {
    out += ".gate " + name + " rdrive=" + value(gate.drive_resistance) +
           " cin=" + value(gate.input_capacitance) +
           " delay=" + value(gate.intrinsic_delay) + "\n";
  }
  for (const std::string& pi : design.primary_inputs()) {
    out += ".input " + pi + "\n";
  }
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    const timing::Net& net = design.net_at(i);
    out += ".net " + design.net_driver(i) + " " + net.name + "\n";
    std::size_t index = 0;
    for (const timing::NetElement& e : net.parasitics) {
      const char kind =
          e.kind == timing::NetElement::Kind::Resistor    ? 'R'
          : e.kind == timing::NetElement::Kind::Capacitor ? 'C'
                                                          : 'L';
      out += kind + std::to_string(++index) + " " + e.node_a + " " +
             e.node_b + " " + value(e.value) + "\n";
    }
    for (const auto& [sink, node] : net.sink_node) {
      out += ".sink " + sink + " " + node + "\n";
    }
    out += ".endnet\n";
  }
  return out;
}

struct ParseState {
  std::string text;
  std::size_t elements = 0;  // generated
  audit::DesignParse parsed;
  std::vector<double> seconds;  // per timed parse
};

BenchCase parse_design_case() {
  BenchCase c;
  c.name = "audit.parse_design";
  c.paper_ref = "Section 2 (timing front end: design netlist input)";
  c.accuracy_metric = "element_count_error";
  c.accuracy_bound = 0.0;
  reduce::MegaSpec spec;
  spec.style = reduce::MegaSpec::Style::Tree;
  spec.cell_nodes = 100;
  spec.target_nodes = 30'000;
  spec.variants = 16;
  spec.seed = 1;
  c.problem_size = reduce::mega_stages(spec);
  c.prepare = [spec] {
    const timing::Design design = reduce::mega_design(spec);
    auto state = std::make_shared<ParseState>();
    state->text = design_text(design);
    for (std::size_t i = 0; i < design.net_count(); ++i) {
      state->elements += design.net_at(i).parasitics.size();
    }
    PreparedCase p;
    p.run = [state] {
      const auto t0 = Clock::now();
      state->parsed = audit::parse_design(state->text, "generated.net");
      state->seconds.push_back(seconds_since(t0));
    };
    p.accuracy = [state] {
      if (!state->parsed.design) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      std::size_t parsed = 0;
      const timing::Design& design = *state->parsed.design;
      for (std::size_t i = 0; i < design.net_count(); ++i) {
        parsed += design.net_at(i).parasitics.size();
      }
      return std::abs(static_cast<double>(parsed) -
                      static_cast<double>(state->elements));
    };
    p.extra = [state] {
      const double mb = static_cast<double>(state->text.size()) / 1e6;
      Extras extra;
      extra.emplace_back("text_mb", mb);
      extra.emplace_back("elements", static_cast<double>(state->elements));
      // The first parse is the harness's untimed warmup.
      std::vector<double> timed = state->seconds;
      if (timed.size() > 1) timed.erase(timed.begin());
      extra.emplace_back("mb_per_s", mb / median_of(timed));
      return extra;
    };
    return p;
  };
  return c;
}

}  // namespace

void register_audit_cases() {
  register_bench(mega_audit_case("audit.mega_10k", 10'000,
                                 /*quick_tier=*/true));
  register_bench(parse_design_case());
}

}  // namespace awesim::bench
