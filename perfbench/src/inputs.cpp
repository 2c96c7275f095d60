#include "inputs.h"

#include <cstdio>
#include <iterator>
#include <utility>

#include "common.h"

namespace perfbench {

namespace {

using awesim::reduce::MegaSpec;
using awesim::timing::Design;
using awesim::timing::Net;
using awesim::timing::NetElement;

// Nets per half of the cold sign-off design, and interior nodes per net
// of the cold and serve designs.
constexpr std::size_t kColdNetsPerHalf = 1000;
constexpr std::size_t kCellNodes = 100;

// The anchor cells' generator seed: fixed, so their stage delays are
// the same for every workload seed.
constexpr std::uint32_t kAnchorSeed = 20260417u;

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint32_t seed32(std::uint64_t seed, std::uint64_t stream) {
  return static_cast<std::uint32_t>(mix_seed(seed, stream) >> 32);
}

MegaSpec cold_spec(MegaSpec::Style style, std::uint32_t seed) {
  MegaSpec spec;
  spec.style = style;
  spec.cell_nodes = kCellNodes;
  spec.target_nodes = kColdNetsPerHalf * kCellNodes;
  spec.variants = kColdNetsPerHalf;  // every net distinct: no dedup help
  spec.seed = seed;
  return spec;
}

/// `design` with net 0's parasitics replaced by the anchor cell of the
/// same style.
Design with_anchor(const Design& design, MegaSpec::Style style) {
  MegaSpec anchor_spec = cold_spec(style, kAnchorSeed);
  anchor_spec.target_nodes = anchor_spec.cell_nodes;
  anchor_spec.variants = 1;
  const Design anchor = awesim::reduce::mega_design(anchor_spec);
  Design out;
  for (const auto& [name, gate] : design.gates()) out.add_gate(gate);
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    Net net = design.net_at(i);
    if (i == 0) net.parasitics = anchor.net_at(0).parasitics;
    out.add_net(design.net_driver(i), std::move(net));
  }
  for (const std::string& pi : design.primary_inputs()) {
    out.set_primary_input(pi);
  }
  return out;
}

char kind_letter(NetElement::Kind kind) {
  switch (kind) {
    case NetElement::Kind::Resistor: return 'R';
    case NetElement::Kind::Capacitor: return 'C';
    case NetElement::Kind::Inductor: return 'L';
  }
  return '?';
}

}  // namespace

std::string design_text(const Design& design, const std::string& prefix) {
  std::string out;
  const auto gate_name = [&](const std::string& g) { return prefix + g; };
  for (const auto& [name, gate] : design.gates()) {
    out += ".gate " + gate_name(name) + " rdrive=" +
           num(gate.drive_resistance) + " cin=" +
           num(gate.input_capacitance) + " delay=" +
           num(gate.intrinsic_delay) + "\n";
  }
  for (const std::string& pi : design.primary_inputs()) {
    out += ".input " + gate_name(pi) + "\n";
  }
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    const Net& net = design.net_at(i);
    out += ".net " + gate_name(design.net_driver(i)) + " " + prefix +
           net.name + "\n";
    std::size_t index = 0;
    for (const NetElement& e : net.parasitics) {
      out += kind_letter(e.kind);
      out += std::to_string(++index) + " " + e.node_a + " " + e.node_b +
             " " + num(e.value) + "\n";
    }
    for (const auto& [sink, node] : net.sink_node) {
      out += ".sink " + gate_name(sink) + " " + node + "\n";
    }
    out += ".endnet\n";
  }
  return out;
}

std::string cold_netlist(std::uint64_t seed) {
  const Design tree = with_anchor(
      awesim::reduce::mega_design(
          cold_spec(MegaSpec::Style::Tree, seed32(seed, 1))),
      MegaSpec::Style::Tree);
  const Design mesh = with_anchor(
      awesim::reduce::mega_design(
          cold_spec(MegaSpec::Style::Mesh, seed32(seed, 2))),
      MegaSpec::Style::Mesh);
  return "* cold_signoff seed " + std::to_string(seed) + "\n" +
         design_text(tree, "t") + design_text(mesh, "m");
}

MegaSpec hier_spec(std::uint64_t seed) {
  MegaSpec spec;
  spec.style = MegaSpec::Style::Mesh;
  spec.target_nodes = 1'000'000;
  spec.cell_nodes = 1000;
  spec.variants = 8;
  spec.seed = seed32(seed, 3);
  return spec;
}

Design serve_design(std::uint64_t seed) {
  MegaSpec spec;
  spec.style = MegaSpec::Style::Tree;
  spec.cell_nodes = kCellNodes;
  spec.target_nodes = kServeNets * kCellNodes;
  spec.variants = kServeNets;
  spec.seed = seed32(seed, 4);
  return awesim::reduce::mega_design(spec);
}

RequestLog::RequestLog(const Design& design, std::uint64_t seed,
                       unsigned client)
    : design_(&design), rng_(mix_seed(seed, 100 + client)), client_(client) {
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    if (design.net_at(i).parasitics.size() >= 64) sweepable_.push_back(i);
  }
}

LoggedRequest RequestLog::next() {
  const auto unit = [this] {
    return static_cast<double>(rng_() >> 11) * (1.0 / 9007199254740992.0);
  };
  const auto pick = [this](std::size_t n) {
    return static_cast<std::size_t>(rng_() % n);
  };
  const std::string id =
      std::to_string(static_cast<std::uint64_t>(client_) * 1'000'000'000ull +
                     ++id_);
  const auto line = [&](const std::string& method,
                        const std::string& params) {
    return "{\"id\":" + id + ",\"method\":\"" + method + "\"" +
           (params.empty() ? "" : ",\"params\":" + params) + "}";
  };
  if (fresh_pending_) {
    fresh_pending_ = false;
    return {"analyze_fresh", "fresh", line("analyze", "")};
  }
  // The mix is an assumption: no recorded traffic exists to fit it to.
  // Rule: reads are the majority (analyze 30%, worst_paths 15%, stats 15%);
  // writes are about a third, split set_value 17% / set_gate 15%; sweeps
  // take the remaining 8%, enough for ~80-100 sweep samples in the untraced
  // slices of a 30 s traced run.  See perfbench/README.md, "Request mix".
  const double u = unit();
  if (u < 0.30) return {"analyze", "read", line("analyze", "")};
  if (u < 0.45) {
    return {"worst_paths", "read", line("worst_paths", "{\"k\":100}")};
  }
  if (u < 0.60) return {"stats", "read", line("stats", "")};
  if (u < 0.77) {
    const std::size_t n = pick(design_->net_count());
    const Net& net = design_->net_at(n);
    const std::size_t e = pick(net.parasitics.size());
    const double v = net.parasitics[e].value * (0.8 + 0.4 * unit());
    fresh_pending_ = true;
    return {"set_value", "write",
            line("set_value", "{\"net\":\"" + net.name +
                                  "\",\"element_index\":" +
                                  std::to_string(e) + ",\"value\":" + num(v) +
                                  "}")};
  }
  if (u < 0.92) {
    auto it = design_->gates().begin();
    std::advance(it, static_cast<long>(pick(design_->gates().size())));
    const awesim::timing::Gate& g = it->second;
    const double rd = g.drive_resistance * (0.8 + 0.4 * unit());
    const double ci = g.input_capacitance * (0.8 + 0.4 * unit());
    fresh_pending_ = true;
    return {"set_gate", "write",
            line("set_gate", "{\"gate\":\"" + g.name +
                                 "\",\"drive_resistance\":" + num(rd) +
                                 ",\"input_capacitance\":" + num(ci) + "}")};
  }
  const Net& net = design_->net_at(sweepable_[pick(sweepable_.size())]);
  const std::size_t e = pick(net.parasitics.size());
  std::string values;
  for (int k = 0; k < 8; ++k) {
    if (k > 0) values += ',';
    values += num(net.parasitics[e].value * (0.7 + 0.6 * unit()));
  }
  return {"sweep", "sweep",
          line("sweep", "{\"kind\":\"net_element\",\"name\":\"" + net.name +
                            "\",\"element_index\":" + std::to_string(e) +
                            ",\"values\":[" + values + "]}")};
}

}  // namespace perfbench
