// Registration entry points for the unified `awesim_bench` runner, and
// the helpers the case files share.  The harness lives in a static
// library, so each translation unit of cases exposes an explicit
// registration function instead of relying on static initializers the
// linker may drop.
#pragma once

#include <mutex>

#include "circuit/circuit.h"
#include "circuits/paper_circuits.h"
#include "core/engine.h"
#include "sim/transient.h"
#include "waveform/waveform.h"

namespace awesim::bench {

/// Bare production configuration (the Fig. 19 cost model): requested
/// order only, no q-vs-(q+1) error estimation, no t=0+ jump check.
inline core::EngineOptions bare_options(int order) {
  core::EngineOptions opt;
  opt.order = order;
  opt.estimate_error = false;
  opt.jump_consistent = false;
  return opt;
}

/// The paper circuits' 0 -> 5 V input with a finite rise time.
inline circuits::Drive ramp_drive(double rise_time) {
  circuits::Drive d;
  d.rise_time = rise_time;
  return d;
}

/// The transient reference every accuracy-vs-simulator case uses: a
/// fixed-step trapezoidal run of 2000 steps over [0, horizon].
inline waveform::Waveform simulate(const circuit::Circuit& ckt,
                                   circuit::NodeId out, double horizon) {
  sim::TransientSimulator sim(ckt);
  sim::TransientOptions sopt;
  sopt.timestep = horizon / 2000.0;
  return sim.run({out}, horizon, sopt);
}

/// The waveform-figure reproductions (Figs. 7, 12, 14, 15, 17/18, 19,
/// 20/21, 23/24, 26/27).
void register_figure_cases();

/// The pole tables (Tables I and II) against exact eigenvalues.
void register_table_cases();

/// The frequency-scaling and order-sweep ablations and the Section IV
/// tree/link moment comparison.
void register_ablation_cases();

/// The scaling/amortization cases: the Section I speedup-vs-simulation
/// RC lines, the 32-sink batch net, the parallel timing wavefront.
void register_scaling_cases();

/// The incremental what-if sweeps: timing::Session warm re-analysis
/// against cold per-point Design::analyze.
void register_sweep_cases();

/// The timing-graph path queries: K-worst enumeration determinism and
/// throughput.
void register_paths_cases();

/// The service-layer throughput cases: an in-process serve::Server on
/// loopback TCP under 1/8/32 concurrent clients (qps, p50/p99 latency).
void register_serve_cases();

/// The hierarchical-reduction cases: the 10k-node accuracy control and
/// the full-tier 1M-node speedup row (cold collapse + stitched
/// analysis vs the flat analyzer).
void register_reduce_cases();

/// The static-audit case: the three-tier design audit timed against the
/// cold analysis it pre-flights (the near-free contract).
void register_audit_cases();

/// Idempotent: registers every case exactly once.
inline void ensure_all_registered() {
  static std::once_flag once;
  std::call_once(once, [] {
    register_figure_cases();
    register_table_cases();
    register_ablation_cases();
    register_scaling_cases();
    register_sweep_cases();
    register_paths_cases();
    register_serve_cases();
    register_reduce_cases();
    register_audit_cases();
  });
}

}  // namespace awesim::bench
