// Warm equals cold -- the `numeric` differential tier (ctest -L numeric).
//
// Two layers of contract:
//
//   * Blocked multi-RHS substitutions (dense and sparse) are *bitwise*
//     identical to their one-vector forms; the engine's batched moment
//     solves lean on this.
//
//   * Every warm report a timing::Session produces -- after seeded
//     mutation sequences, at every Session::sweep point, and at every
//     Snapshot::sweep point -- is bit-identical to a cold
//     Design::analyze() of the same edited design.  The nets carry at
//     least 64 parasitics, so each changed stage does real sparse-LU
//     work, and the cache replays the untouched ones.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/fault.h"
#include "la/lu.h"
#include "la/sparse.h"
#include "timing/session.h"
#include "timing/snapshot.h"
#include "util/random_circuits.h"

namespace awesim {

namespace {

using la::Lu;
using la::Matrix;
using la::RealVector;

// A diagonally dominant random matrix: always invertible.
Matrix<double> random_dd_matrix(std::uint32_t seed, std::size_t n) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> off(-1.0, 1.0);
  Matrix<double> a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      a(i, j) = off(rng);
      row += std::fabs(a(i, j));
    }
    a(i, i) = row + 1.0;
  }
  return a;
}

RealVector random_vector(std::uint32_t seed, std::size_t n) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  RealVector b(n);
  for (double& x : b) x = val(rng);
  return b;
}

}  // namespace

// ---------------------------------------------------------------------
// Multi-RHS substitutions: bitwise identity with the one-vector forms,
// across the sparse LU's panel-boundary counts (8 per panel).

TEST(BlockedSubstitution, DenseSolveMultiBitwiseEqualsSolve) {
  for (std::size_t nrhs : {1u, 7u, 8u, 9u, 16u, 23u}) {
    const std::size_t n = 19;
    Matrix<double> a = random_dd_matrix(41u, n);
    const Lu<double> lu(a);
    std::vector<RealVector> bs;
    for (std::uint32_t s = 0; s < nrhs; ++s) {
      bs.push_back(random_vector(1000u + s, n));
    }
    const std::vector<RealVector> batched = lu.solve_multi(bs);
    ASSERT_EQ(batched.size(), nrhs);
    for (std::size_t j = 0; j < nrhs; ++j) {
      EXPECT_EQ(batched[j], lu.solve(bs[j])) << nrhs << " rhs, j=" << j;
    }
  }
}

TEST(BlockedSubstitution, SparseSolveMultiBitwiseEqualsSolve) {
  // An RC-ladder-shaped tridiagonal system, the shape SparseLu serves in
  // production.
  const std::size_t n = 40;
  std::vector<la::Triplet> trips;
  for (std::size_t i = 0; i < n; ++i) {
    trips.push_back({i, i, 3.0 + 0.01 * static_cast<double>(i)});
    if (i + 1 < n) {
      trips.push_back({i, i + 1, -1.0});
      trips.push_back({i + 1, i, -1.0});
    }
  }
  const la::SparseMatrix a = la::SparseMatrix::from_triplets(n, n, trips);
  const la::SparseLu lu(a);
  for (std::size_t nrhs : {1u, 8u, 11u, 24u}) {
    std::vector<RealVector> bs;
    for (std::uint32_t s = 0; s < nrhs; ++s) {
      bs.push_back(random_vector(2000u + s, n));
    }
    const std::vector<RealVector> batched = lu.solve_multi(bs);
    ASSERT_EQ(batched.size(), nrhs);
    for (std::size_t j = 0; j < nrhs; ++j) {
      EXPECT_EQ(batched[j], lu.solve(bs[j])) << nrhs << " rhs, j=" << j;
    }
  }
}

// ---------------------------------------------------------------------
// The differential tier: every warm Session report against a cold
// Design::analyze() of the same edited design.

namespace {

using timing::AnalysisOptions;
using timing::Session;
using timing::SweepParam;
using timing::SweepResult;
using timing::TimingReport;
using timing::testutil::StageDesign;
using timing::testutil::ValueMutation;

// Line, tree and mesh stages, each with at least 64 parasitics.
StageDesign make_family(int family, std::uint32_t seed) {
  switch (family) {
    case 0: return timing::testutil::rc_line_design(seed, 40);
    case 1: return timing::testutil::rc_tree_design(seed, 40);
    default: return timing::testutil::rc_mesh_design(seed, 36, 4);
  }
}

// A cold analysis of `stage` after `edit`: a fresh Session is only the
// mutable holder of the design here -- it never analyzes.
template <typename Edit>
TimingReport cold_after(const StageDesign& stage, Edit edit) {
  Session holder(stage.design);
  edit(holder);
  return holder.design().analyze(AnalysisOptions{});
}

// Replays one mutation; `kind` 0 edits a resistor, 1 the driver's
// switching resistance, 2 every sink gate's input capacitance.
void apply(Session& s, int kind, const ValueMutation& m, double scale) {
  switch (kind) {
    case 0:
      s.set_value(m.net, m.element_index, m.value);
      return;
    case 1:
      s.set_drive_resistance("drv", s.design().gates().at("drv")
                                            .drive_resistance * scale);
      return;
    default:
      for (const auto& [name, gate] : s.design().gates()) {
        if (name != "drv") {
          s.set_input_capacitance(name, gate.input_capacitance * scale);
        }
      }
      return;
  }
}

}  // namespace

TEST(WarmEqualsCold, MutationSequencesAreBitIdenticalToCold) {
  for (int family = 0; family < 3; ++family) {
    for (std::uint32_t seed : {1u, 2u, 3u}) {
      const StageDesign stage = make_family(family, seed);
      ASSERT_GE(stage.design.net_at(0).parasitics.size(), 64u);
      Session warm(stage.design);
      Session replay(stage.design);  // mutated in step, never analyzed
      (void)warm.analyze();

      std::mt19937 rng(seed * 131u + static_cast<std::uint32_t>(family));
      std::uniform_int_distribution<int> pick_kind(0, 2);
      std::uniform_real_distribution<double> scale(0.7, 1.3);
      const std::vector<ValueMutation> steps =
          timing::testutil::random_perturbations(seed * 31u + 7u, stage, 8);
      for (std::size_t s = 0; s < steps.size(); ++s) {
        const int kind = pick_kind(rng);
        const double k = scale(rng);
        apply(warm, kind, steps[s], k);
        apply(replay, kind, steps[s], k);
        const TimingReport w = warm.analyze();
        SCOPED_TRACE("family " + std::to_string(family) + " seed " +
                     std::to_string(seed) + " step " + std::to_string(s) +
                     " kind " + std::to_string(kind));
        EXPECT_EQ(w.awe_stats.stages_recomputed, 1u);
        timing::testutil::expect_same_payload(
            w, replay.design().analyze(AnalysisOptions{}));
      }
    }
  }
}

TEST(WarmEqualsCold, BatchedEditsAreBitIdenticalToCold) {
  // Several edits land before one analyze: the warm report still equals
  // a cold analysis of the final design state.
  for (std::uint32_t seed : {5u, 6u}) {
    const StageDesign stage = make_family(1, seed);
    Session warm(stage.design);
    Session replay(stage.design);  // mutated in step, never analyzed
    (void)warm.analyze();
    const std::vector<ValueMutation> steps =
        timing::testutil::random_perturbations(seed + 900u, stage, 4);
    for (const ValueMutation& m : steps) {
      warm.set_value(m.net, m.element_index, m.value);
      replay.set_value(m.net, m.element_index, m.value);
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    timing::testutil::expect_same_payload(
        warm.analyze(), replay.design().analyze(AnalysisOptions{}));
  }
}

TEST(WarmEqualsCold, SessionSweepPointsAreBitIdenticalToCold) {
  for (int family = 0; family < 3; ++family) {
    const StageDesign stage = make_family(family, 77u);
    Session warm(stage.design);
    (void)warm.analyze();
    const std::size_t r0 = stage.resistor_indices[3];
    const double nominal = stage.resistor_values[3];
    const std::vector<SweepParam> params = {
        {SweepParam::Kind::DriveResistance, "drv", 0},
        {SweepParam::Kind::NetElementValue, stage.net, r0},
    };
    const std::vector<std::vector<double>> values = {
        {150.0, 300.0, 450.0, 600.0, 300.0},
        {nominal * 0.5, nominal * 2.0, nominal * 1.5, nominal * 0.5},
    };
    for (std::size_t p = 0; p < params.size(); ++p) {
      const SweepResult result = warm.sweep(params[p], values[p]);
      ASSERT_EQ(result.points.size(), values[p].size());
      timing::testutil::expect_same_payload(
          result.baseline, cold_after(stage, [](Session&) {}));
      for (std::size_t i = 0; i < values[p].size(); ++i) {
        SCOPED_TRACE("family " + std::to_string(family) + " param " +
                     std::to_string(p) + " point " + std::to_string(i));
        const double v = values[p][i];
        const TimingReport cold = cold_after(stage, [&](Session& s) {
          if (p == 0) {
            s.set_drive_resistance("drv", v);
          } else {
            s.set_value(stage.net, r0, v);
          }
        });
        timing::testutil::expect_same_payload(result.points[i].report, cold);
      }
    }
  }
}

TEST(WarmEqualsCold, SnapshotSweepPointsAreBitIdenticalToCold) {
  const StageDesign stage = make_family(2, 19u);
  timing::SnapshotStore store(stage.design, AnalysisOptions{});
  const auto snap = store.current();
  (void)snap->report();
  const SweepParam param{SweepParam::Kind::NetElementValue, stage.net,
                         stage.resistor_indices[5]};
  const double nominal = stage.resistor_values[5];
  const std::vector<double> values = {nominal * 0.6, nominal * 1.4,
                                      nominal * 0.6};
  // Twice: the second sweep replays every point from the shared cache.
  for (int round = 0; round < 2; ++round) {
    const SweepResult result = snap->sweep(param, values);
    ASSERT_EQ(result.points.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      SCOPED_TRACE("round " + std::to_string(round) + " point " +
                   std::to_string(i));
      const TimingReport cold = cold_after(stage, [&](Session& s) {
        s.set_value(stage.net, param.element_index, values[i]);
      });
      timing::testutil::expect_same_payload(result.points[i].report, cold);
    }
  }
  // The snapshot itself never moved.
  timing::testutil::expect_same_payload(
      *snap->report(), cold_after(stage, [](Session&) {}));
}

TEST(WarmEqualsCold, CorruptedCacheEntryStillRecomputes) {
  // A corrupted stage entry goes through the checksum-guarded lookup:
  // the stage recomputes, never serves stale, and the recomputed
  // payload is still the cold one.
  const StageDesign stage = make_family(0, 91u);
  Session warm(stage.design);
  (void)warm.analyze();
  warm.set_value(stage.net, stage.resistor_indices[0],
                 stage.resistor_values[0] * 1.2);
  (void)warm.analyze();

  core::ScopedFaultInjection scoped({{"session.cache", "net0", -1}});
  const TimingReport recomputed = warm.analyze();
  bool saw_invalidation = false;
  for (const auto& st : recomputed.stages) {
    for (const auto& d : st.diagnostics) {
      if (d.code == core::DiagCode::CacheInvalidated) saw_invalidation = true;
    }
  }
  EXPECT_TRUE(saw_invalidation);
  EXPECT_EQ(recomputed.awe_stats.stages_recomputed, 1u);
  timing::testutil::expect_same_payload(
      recomputed, warm.design().analyze(AnalysisOptions{}),
      /*compare_diagnostics=*/false);
}

}  // namespace awesim
