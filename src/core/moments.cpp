#include "core/moments.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "la/eig.h"
#include "la/lu.h"

namespace awesim::core {

namespace {

// Largest relative violation of the t=0+ constraints that still counts
// as rounding: x_h0 of a ramp atom meets them up to the residual of the
// LU solves that produced it.
constexpr double kConsistencyTolerance = 1e-12;

// Relative deviation beyond which the t=0+ initial value replaces the
// nominal x_h0 entry (i.e. the response genuinely jumps at t=0+).
constexpr double kJumpTolerance = 1e-6;

}  // namespace

MomentSequence::MomentSequence(const mna::MnaSystem& mna,
                               la::RealVector x_h0)
    : mna_(&mna), x_h0_(std::move(x_h0)) {
  if (x_h0_.size() != mna.dim()) {
    throw std::invalid_argument("MomentSequence: x_h0 dimension mismatch");
  }
  mu_minus1_ = x_h0_;
  for (auto& v : mu_minus1_) v = -v;
}

const la::RealVector& MomentSequence::mu(int j) {
  if (j == -1) return mu_minus1_;
  if (j == -2) {
    if (!have_minus2_) {
      // x_h'(0+): C x' = -G x(0+) on the dynamic rows, P G x' = 0.
      la::RealVector rhs = mna_->apply_G(consistent_initial_value());
      for (auto& v : rhs) v = -v;
      try {
        mu_minus2_ = mna_->solve_initial(rhs);
        for (auto& v : mu_minus2_) v = -v;  // mu_{-2} = -x_h'(0+)
      } catch (const la::SingularMatrixError& e) {
        note_singular_initial(e.pivot_index());
        mu_minus2_.assign(x_h0_.size(),
                          std::numeric_limits<double>::quiet_NaN());
      }
      have_minus2_ = true;
    }
    return mu_minus2_;
  }
  if (j < -2) {
    throw std::invalid_argument("MomentSequence: j >= -2 required");
  }
  while (positive_.size() <= static_cast<std::size_t>(j)) {
    const la::RealVector& prev =
        positive_.empty() ? x_h0_ : positive_.back();
    la::RealVector next = mna_->solve(mna_->apply_C(prev));
    if (!positive_.empty()) {
      for (auto& v : next) v = -v;
    }
    positive_.push_back(std::move(next));
  }
  return positive_[static_cast<std::size_t>(j)];
}

void MomentSequence::ensure(int j_max) {
  if (j_max >= 0) mu(j_max);
}

void MomentSequence::ensure_all(
    const std::vector<MomentSequence*>& sequences, int j_max) {
  if (j_max < 0 || sequences.empty()) return;
  const mna::MnaSystem* mna = sequences.front()->mna_;
  for (const auto* s : sequences) {
    if (s->mna_ != mna) {
      throw std::invalid_argument(
          "MomentSequence::ensure_all: sequences span different systems");
    }
  }
  const std::size_t want = static_cast<std::size_t>(j_max) + 1;
  for (;;) {
    // One lock-step round: every sequence still short of j_max
    // contributes the RHS of its next moment.
    std::vector<MomentSequence*> pending;
    std::vector<la::RealVector> rhs;
    for (auto* s : sequences) {
      if (s->positive_.size() >= want) continue;
      const la::RealVector& prev =
          s->positive_.empty() ? s->x_h0_ : s->positive_.back();
      pending.push_back(s);
      rhs.push_back(mna->apply_C(prev));
    }
    if (pending.empty()) break;
    std::vector<la::RealVector> solved = mna->solve_multi(rhs);
    for (std::size_t k = 0; k < pending.size(); ++k) {
      la::RealVector next = std::move(solved[k]);
      if (!pending[k]->positive_.empty()) {
        for (auto& v : next) v = -v;
      }
      pending[k]->positive_.push_back(std::move(next));
    }
  }
}

const la::RealVector& MomentSequence::consistent_initial_value() {
  if (!have_consistent_) {
    have_consistent_ = true;
    consistent_x0_ = x_h0_;
    // P is complete for R/C/L/source circuits, so meeting it proves there
    // is no jump.  A macro with a singular C block could hide a
    // constraint, so with macros the t=0+ system is always solved: a
    // hidden constraint then surfaces as a singular t=0+ system.
    const bool meets_constraints =
        mna_->circuit().macros().empty() &&
        mna_->constraint_violation(x_h0_) <= kConsistencyTolerance;
    if (!meets_constraints) {
      try {
        consistent_x0_ = mna_->solve_initial(mna_->apply_C(x_h0_));
      } catch (const la::SingularMatrixError& e) {
        note_singular_initial(e.pivot_index());
      }
    }
  }
  return consistent_x0_;
}

void MomentSequence::note_singular_initial(std::size_t pivot_index) {
  if (init_diagnostic_) return;
  Diagnostic d;
  d.code = DiagCode::SingularPivot;
  d.severity = Severity::Warning;
  d.message =
      "t=0+ circuit singular at pivot " + std::to_string(pivot_index) +
      ": the initial state is not determined (an impulse at t=0 reaches a "
      "node without capacitance?); x(0-) used without jump correction";
  init_diagnostic_ = std::move(d);
}

bool MomentSequence::has_jump(std::size_t index) {
  const double nominal = x_h0_[index];
  const double actual = consistent_initial_value()[index];
  const double scale =
      std::max({std::abs(nominal), std::abs(actual), 1e-300});
  return std::abs(nominal - actual) > kJumpTolerance * scale;
}

double MomentSequence::gamma_estimate(std::size_t index) {
  // First pair of consecutive moments that are both clearly nonzero.
  double scale = 0.0;
  for (int j = -1; j <= 2; ++j) scale = std::max(scale, std::abs(mu(j, index)));
  if (scale == 0.0) return 1.0;
  for (int j = -1; j <= 4; ++j) {
    const double a = std::abs(mu(j, index));
    const double b = std::abs(mu(j + 1, index));
    if (a > 1e-12 * scale && b > 0.0) {
      const double g = a / b;
      if (std::isfinite(g) && g > 0.0) return g;
    }
  }
  return 1.0;
}

la::ComplexVector actual_poles(const mna::MnaSystem& mna,
                               double drop_tolerance) {
  const std::size_t n = mna.dim();
  // W = G^{-1} C, built column by column with the shared LU.
  la::RealMatrix w(n, n);
  la::RealVector col(n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) col[i] = mna.C()(i, j);
    const la::RealVector wj = mna.solve(col);
    for (std::size_t i = 0; i < n; ++i) w(i, j) = wj[i];
  }
  const la::ComplexVector lambda = la::eigenvalues(w);
  double max_mag = 0.0;
  for (const auto& l : lambda) max_mag = std::max(max_mag, std::abs(l));
  la::ComplexVector poles;
  for (const auto& l : lambda) {
    if (std::abs(l) > drop_tolerance * max_mag) {
      poles.push_back(-1.0 / l);
    }
  }
  std::sort(poles.begin(), poles.end(),
            [](const la::Complex& a, const la::Complex& b) {
              const double ma = std::abs(a);
              const double mb = std::abs(b);
              if (ma != mb) return ma < mb;
              return a.imag() < b.imag();
            });
  return poles;
}

}  // namespace awesim::core
