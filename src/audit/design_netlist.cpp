#include "audit/design_netlist.h"

#include <cctype>
#include <fstream>
#include <sstream>
#include <vector>

#include "netlist/lines.h"
#include "netlist/parser.h"
#include "obs/trace.h"

namespace awesim::audit {

namespace {

/// A view into the netlist text, with its 1-based column.
struct Token {
  std::string_view text;
  std::size_t column = 0;
};

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)); }

/// ASCII case-insensitive match against a lower-case word.
bool iequals(std::string_view text, std::string_view lower_word) {
  if (text.size() != lower_word.size()) return false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(text[i])) != lower_word[i]) {
      return false;
    }
  }
  return true;
}

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

/// Whitespace-split one line into `tokens` (cleared first, so one
/// vector serves every line); a token starting with '*' begins a
/// comment that eats the rest of the line.
void tokenize(std::string_view line, std::vector<Token>& tokens) {
  tokens.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_space(line[i])) ++i;
    if (i >= line.size() || line[i] == '*') break;
    const std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    tokens.push_back({line.substr(start, i - start), start + 1});
  }
}

using At = DesignSourceMap::At;

struct Parser {
  DesignParse out;

  // Declaration-ordered collections, assembled into a Design at the end.
  // out.sources.gates / .nets double as the name sets: a gate or a
  // closed net is in the source map exactly when it was accepted.
  std::vector<timing::Gate> gates;
  struct PendingNet {
    std::string driver;
    timing::Net net;
    At loc;
    std::vector<At> elements;
  };
  std::vector<PendingNet> nets;
  std::vector<std::pair<std::string, At>> primary_inputs;

  std::optional<PendingNet> open;  // the .net currently being filled

  void error(std::size_t line, std::size_t column, std::string message) {
    core::Diagnostic d;
    d.code = core::DiagCode::ParseError;
    d.severity = core::Severity::Error;
    d.message = std::move(message);
    d.file = out.sources.file;
    d.line = line;
    d.column = column;
    out.diagnostics.push_back(std::move(d));
  }

  bool parse_double(const Token& t, std::size_t line, double* value) {
    try {
      *value = netlist::parse_value(t.text);
      return true;
    } catch (const std::invalid_argument& e) {
      error(line, t.column, e.what());
      return false;
    }
  }

  bool is_gate(std::string_view name) const {
    return out.sources.gates.find(name) != out.sources.gates.end();
  }

  void gate_card(const std::vector<Token>& tok, std::size_t line) {
    if (tok.size() < 2) {
      error(line, tok[0].column, ".gate needs a name");
      return;
    }
    timing::Gate gate;
    gate.name = tok[1].text;
    if (is_gate(gate.name)) {
      error(line, tok[1].column, "duplicate gate '" + gate.name + "'");
      return;
    }
    for (std::size_t i = 2; i < tok.size(); ++i) {
      const std::string_view param = tok[i].text;
      const std::size_t eq = param.find('=');
      if (eq == std::string_view::npos) {
        error(line, tok[i].column,
              ".gate parameter is not key=value: '" + std::string(param) +
                  "'");
        continue;
      }
      const std::string_view key = param.substr(0, eq);
      const Token value{param.substr(eq + 1), tok[i].column + eq + 1};
      double v = 0.0;
      if (!parse_double(value, line, &v)) continue;
      if (iequals(key, "rdrive")) {
        gate.drive_resistance = v;
      } else if (iequals(key, "cin")) {
        gate.input_capacitance = v;
      } else if (iequals(key, "delay")) {
        gate.intrinsic_delay = v;
      } else {
        error(line, tok[i].column,
              "unknown .gate parameter '" + lower(key) + "'");
      }
    }
    out.sources.gates.emplace(gate.name, At{line, tok[1].column});
    gates.push_back(std::move(gate));
  }

  void net_card(const std::vector<Token>& tok, std::size_t line) {
    if (open.has_value()) {
      error(line, tok[0].column,
            ".net before .endnet of '" + open->net.name + "'");
      close_net();
    }
    if (tok.size() < 3) {
      error(line, tok[0].column, ".net needs DRIVER and NETNAME");
      return;
    }
    if (out.sources.nets.find(tok[2].text) != out.sources.nets.end()) {
      error(line, tok[2].column,
            "duplicate net '" + std::string(tok[2].text) + "'");
      return;
    }
    PendingNet& pending = open.emplace();
    pending.driver = tok[1].text;
    pending.net.name = tok[2].text;
    pending.loc = At{line, tok[2].column};
  }

  void element_card(const std::vector<Token>& tok, std::size_t line) {
    if (!open.has_value()) {
      error(line, tok[0].column,
            "element card outside .net/.endnet: '" +
                std::string(tok[0].text) + "'");
      return;
    }
    if (tok.size() != 4) {
      error(line, tok[0].column,
            "element card needs NAME NODE NODE VALUE");
      return;
    }
    timing::NetElement e;
    switch (std::tolower(static_cast<unsigned char>(tok[0].text[0]))) {
      case 'r': e.kind = timing::NetElement::Kind::Resistor; break;
      case 'c': e.kind = timing::NetElement::Kind::Capacitor; break;
      case 'l': e.kind = timing::NetElement::Kind::Inductor; break;
      default:
        error(line, tok[0].column,
              "unknown element card '" + std::string(tok[0].text) +
                  "' (design nets take R/C/L only)");
        return;
    }
    if (!parse_double(tok[3], line, &e.value)) return;
    e.node_a = tok[1].text;
    e.node_b = tok[2].text;
    open->elements.push_back(At{line, tok[0].column});
    open->net.parasitics.push_back(std::move(e));
  }

  void sink_card(const std::vector<Token>& tok, std::size_t line) {
    if (!open.has_value()) {
      error(line, tok[0].column, ".sink outside .net/.endnet");
      return;
    }
    if (tok.size() < 3) {
      error(line, tok[0].column, ".sink needs GATE and NODE");
      return;
    }
    open->net.sink_node.insert_or_assign(std::string(tok[1].text),
                                         std::string(tok[2].text));
  }

  void close_net() {
    if (!open.has_value()) return;
    out.sources.nets.emplace(
        open->net.name,
        DesignSourceMap::NetAt{open->loc, std::move(open->elements)});
    nets.push_back(std::move(*open));
    open.reset();
  }

  void finish(std::size_t last_line) {
    if (open.has_value()) {
      error(last_line, 1, "missing .endnet for '" + open->net.name + "'");
      close_net();
    }
    for (const auto& [name, at] : primary_inputs) {
      if (!is_gate(name)) {
        error(at.line, at.column,
              ".input names unknown gate '" + name + "'");
      }
    }
    for (const PendingNet& pending : nets) {
      if (!is_gate(pending.driver)) {
        error(pending.loc.line, pending.loc.column,
              ".net driver '" + pending.driver + "' is not a gate");
      }
    }
    if (count_at_least(out.diagnostics, core::Severity::Error) > 0) return;
    timing::Design design;
    for (timing::Gate& gate : gates) design.add_gate(std::move(gate));
    for (PendingNet& pending : nets) {
      design.add_net(std::move(pending.driver), std::move(pending.net));
    }
    for (const auto& [name, at] : primary_inputs) {
      (void)at;
      design.set_primary_input(name);
    }
    out.design = std::move(design);
  }
};

circuit::SourceLoc make_loc(const std::string& file, At at) {
  circuit::SourceLoc loc;
  loc.file = file;
  loc.line = at.line;
  loc.column = at.column;
  return loc;
}

}  // namespace

std::optional<circuit::SourceLoc> DesignSourceMap::gate_loc(
    std::string_view gate) const {
  const auto it = gates.find(gate);
  if (it == gates.end()) return std::nullopt;
  return make_loc(file, it->second);
}

std::optional<circuit::SourceLoc> DesignSourceMap::net_loc(
    std::string_view net) const {
  const auto it = nets.find(net);
  if (it == nets.end()) return std::nullopt;
  return make_loc(file, it->second.card);
}

std::optional<circuit::SourceLoc> DesignSourceMap::element_loc(
    std::string_view net, std::size_t index) const {
  const auto it = nets.find(net);
  if (it == nets.end() || index >= it->second.elements.size()) {
    return std::nullopt;
  }
  return make_loc(file, it->second.elements[index]);
}

bool looks_like_design(std::string_view text) {
  netlist::LineScanner lines(text);
  std::string_view line;
  while (lines.next(line)) {
    std::size_t i = 0;
    while (i < line.size() && is_space(line[i])) ++i;
    std::size_t end = i;
    while (end < line.size() && !is_space(line[end])) ++end;
    if (iequals(line.substr(i, end - i), ".gate")) return true;
  }
  return false;
}

DesignParse parse_design(std::string_view text, std::string filename) {
  AWESIM_TRACE_SPAN("netlist.parse");
  Parser p;
  p.out.sources.file = std::move(filename);
  netlist::LineScanner lines(text);
  std::string_view line;
  std::vector<Token> tok;
  while (lines.next(line)) {
    const std::size_t line_no = lines.number();
    tokenize(line, tok);
    if (tok.empty()) continue;
    const std::string_view head = tok[0].text;
    if (iequals(head, ".gate")) {
      p.gate_card(tok, line_no);
    } else if (iequals(head, ".input")) {
      if (tok.size() < 2) {
        p.error(line_no, tok[0].column, ".input needs a gate name");
      } else {
        p.primary_inputs.emplace_back(tok[1].text,
                                      At{line_no, tok[1].column});
      }
    } else if (iequals(head, ".net")) {
      p.net_card(tok, line_no);
    } else if (iequals(head, ".sink")) {
      p.sink_card(tok, line_no);
    } else if (iequals(head, ".endnet")) {
      if (!p.open.has_value()) {
        p.error(line_no, tok[0].column, ".endnet without .net");
      } else {
        p.close_net();
      }
    } else if (iequals(head, ".end")) {
      break;
    } else if (head[0] == '.') {
      p.error(line_no, tok[0].column,
              "unknown directive '" + std::string(head) + "'");
    } else {
      p.element_card(tok, line_no);
    }
  }
  p.finish(lines.number() == 0 ? 1 : lines.number());
  return std::move(p.out);
}

DesignParse parse_design_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    DesignParse out;
    core::Diagnostic d;
    d.code = core::DiagCode::ParseError;
    d.severity = core::Severity::Error;
    d.message = "cannot read '" + path + "'";
    d.file = path;
    out.diagnostics.push_back(std::move(d));
    return out;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_design(text.str(), path);
}

}  // namespace awesim::audit
