// Hierarchical-reduction cases of the unified runner:
//
//   * reduce.rc_mesh_10k (quick tier): the accuracy control -- a
//     10k-node generated mesh fabric analyzed cold through
//     reduce::HierSession vs the flat analyzer; accuracy is the worst
//     absolute stage-delay disagreement in seconds (the documented
//     <= 1e-9 s contract);
//   * speedup.rc_mesh_1M (full tier): the headline row -- a generated
//     1M-node design (1000 nets x 1000 interior nodes, 8 repeated cell
//     variants) analyzed end-to-end, reduction, stitching, and timing
//     included, against the flat analysis of the same design.
//
// Both cases time *cold* hierarchical runs (clear_cache per rep), so
// wall_ms includes partitioning, collapse, verification, and the
// stitched analysis -- not just a warm cache replay.  The repeated-cell
// dedup is still visible: each cold rep computes `variants` reductions
// and rehydrates the other (stages - variants) from the store.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cases.h"
#include "harness.h"
#include "reduce/generate.h"
#include "reduce/hier.h"
#include "timing/analyzer.h"

namespace awesim::bench {

namespace {

/// Worst absolute per-sink stage-delay disagreement, in seconds.
double max_delay_err(const timing::TimingReport& a,
                     const timing::TimingReport& b) {
  if (a.stages.size() != b.stages.size()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    if (a.stages[i].sinks.size() != b.stages[i].sinks.size()) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    for (std::size_t s = 0; s < a.stages[i].sinks.size(); ++s) {
      worst = std::max(worst, std::abs(a.stages[i].sinks[s].stage_delay -
                                       b.stages[i].sinks[s].stage_delay));
    }
  }
  return worst;
}

struct ReduceState {
  std::unique_ptr<reduce::HierSession> hier;
  timing::TimingReport reduced_report;
  timing::TimingReport flat_report;
};

BenchCase mesh_case(std::string name, std::size_t target_nodes,
                    bool quick_tier) {
  BenchCase c;
  c.name = std::move(name);
  c.paper_ref = "Section II (stage decomposition at scale)";
  c.accuracy_metric = "max_abs_delay_err_vs_flat_s";
  // 1000x the larger measured round-off-level error (1.43e-19 s, 1M).
  c.accuracy_bound = 1.5e-16;
  c.problem_size = target_nodes;
  c.quick_tier = quick_tier;
  c.prepare = [target_nodes] {
    reduce::MegaSpec spec;
    spec.style = reduce::MegaSpec::Style::Mesh;
    spec.target_nodes = target_nodes;
    spec.cell_nodes = 1000;
    spec.variants = 8;
    spec.seed = 1;
    auto state = std::make_shared<ReduceState>();
    // The session owns the only flat copy; the reference closure
    // analyzes the same instance through the read accessor.
    state->hier =
        std::make_unique<reduce::HierSession>(reduce::mega_design(spec));
    PreparedCase p;
    p.run = [state] {
      state->hier->clear_cache();  // every rep is a full cold collapse
      state->reduced_report = state->hier->analyze();
    };
    p.reference = [state] {
      state->flat_report = state->hier->design().analyze();
    };
    p.accuracy = [state] {
      return max_delay_err(state->flat_report, state->reduced_report);
    };
    p.extra = [state] {
      const reduce::HierSession::Stats st = state->hier->stats();
      std::vector<std::pair<std::string, double>> extra;
      extra.emplace_back("nets_total", static_cast<double>(st.nets_total));
      extra.emplace_back("nets_reduced",
                         static_cast<double>(st.nets_reduced));
      extra.emplace_back("interior_eliminated",
                         static_cast<double>(st.interior_eliminated));
      extra.emplace_back("macro_states",
                         static_cast<double>(st.macro_states));
      extra.emplace_back("reductions_performed",
                         static_cast<double>(st.reductions_performed));
      extra.emplace_back("reduction_cache_hits",
                         static_cast<double>(st.reduction_cache_hits));
      return extra;
    };
    return p;
  };
  return c;
}

}  // namespace

void register_reduce_cases() {
  register_bench(mesh_case("reduce.rc_mesh_10k", 10'000,
                           /*quick_tier=*/true));
  register_bench(mesh_case("speedup.rc_mesh_1M", 1'000'000,
                           /*quick_tier=*/false));
}

}  // namespace awesim::bench
