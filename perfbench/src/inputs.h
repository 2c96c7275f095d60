// Seeded input generation.  The program under test only ever sees what
// these functions return: netlist text, a Design, a request log.  The
// same seed gives byte-identical inputs (the self-test checks it).
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "reduce/generate.h"
#include "timing/analyzer.h"

namespace perfbench {

// --- cold_signoff ---------------------------------------------------------

/// Gate-level netlist text (the .gate/.net format of
/// audit::parse_design): a binary gate tree of RC-tree cells ("t"
/// prefix) beside a gate chain of resistive-loop mesh cells ("m"
/// prefix).  The first net of each half is an anchor cell whose values
/// do not depend on the seed, so reference.json can pin its delays.
std::string cold_netlist(std::uint64_t seed);

/// The anchor nets, checked against reference.json.
inline const char* const kAnchorNets[] = {"tn0", "mn0"};

// --- hier_mesh_1M ---------------------------------------------------------

/// The speedup.rc_mesh_1M spec (1000 nets x 1000 nodes, 8 variants)
/// with a seeded variant pool.
awesim::reduce::MegaSpec hier_spec(std::uint64_t seed);

// --- serve_whatif ---------------------------------------------------------

inline constexpr std::size_t kServeNets = 200;

/// ~200 RC-tree nets on a binary gate tree; every net has >= 64
/// parasitic elements, so sweeps qualify for the low-rank path.
awesim::timing::Design serve_design(std::uint64_t seed);

/// One request of the seeded log.  `kind` is the latency class:
/// "read", "write" or "sweep"; `verb` the protocol method.  A write is
/// always followed by an "analyze_fresh" read of the same client (the
/// what-if turnaround: edit, then the re-timed report).
struct LoggedRequest {
  std::string verb;
  std::string kind;
  std::string line;
};

/// Closed-loop request stream of one client.  Writes draw values around
/// the *original* design values (never accumulated), so the design does
/// not drift; sweeps draw fresh values so the low-rank path evaluates
/// instead of replaying cached points.
class RequestLog {
 public:
  RequestLog(const awesim::timing::Design& design, std::uint64_t seed,
             unsigned client);
  LoggedRequest next();

 private:
  const awesim::timing::Design* design_;
  std::mt19937_64 rng_;
  unsigned client_;
  std::uint64_t id_ = 0;
  bool fresh_pending_ = false;
  std::vector<std::size_t> sweepable_;  // nets with >= 64 elements
};

/// Canonical text rendering of a Design (the netlist format), used to
/// compare generated designs byte for byte.
std::string design_text(const awesim::timing::Design& design,
                        const std::string& prefix = {});

}  // namespace perfbench
