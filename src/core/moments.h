// Moment generation for AWE (Section 3.2 of the paper).
//
// For the homogeneous (transient) part of the response the Laplace-domain
// solution is  X_h(s) = (G + sC)^{-1} C x_h0,  with x_h0 = x(0-) - x_p(0)
// the deviation of the initial state from the particular solution.  Its
// Maclaurin coefficients ("circuit moments") follow from one LU
// factorization of G and repeated forward/back substitution:
//
//     M_0 = G^{-1} C x_h0,      M_{j+1} = -G^{-1} C M_j .
//
// AWE matches the uniform moment sequence
//
//     mu_{-1} = -x_h0   (initial transient value, with sign so that the
//                        Hankel recurrence below is uniform in j),
//     mu_j    = M_j     (j >= 0),
//
// which satisfies  sum_l k_l p_l^{-(j+1)} = -mu_j  for an exact q-pole
// response -- the uniform restatement of the paper's eq. (16) that makes
// eq. (24) a plain Hankel system.  Optionally mu_{-2} = -x_h'(0+) extends
// the window downward to pin the initial slope (Section 4.3's m_{-2}
// matching for ramp inputs).
//
// The t=0+ state comes from the t=0+ circuit (eq. 8, Section IV): the
// algebraic rows P G x = 0 hold at 0+, and C x changes across t=0 only
// through impulses in the unknowns C cannot see (capacitive division;
// see MnaSystem::constraint_violation and solve_initial).  When x_h0
// already meets the constraints -- every ramp-driven stage -- x_h(0+) =
// x_h0 with no matrix work; otherwise one factorization of the t=0+
// system gives x_h(0+), and a second solve with the same factor gives
// x_h'(0+).
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "core/diagnostic.h"
#include "la/matrix.h"
#include "mna/system.h"

namespace awesim::core {

/// Lazily extended moment sequence of one homogeneous problem (one "atom"
/// of the stimulus decomposition).
class MomentSequence {
 public:
  /// x_h0 is the full MNA-space homogeneous initial vector.
  MomentSequence(const mna::MnaSystem& mna, la::RealVector x_h0);

  /// Moment vector mu_j, j >= -2.  Vectors are cached; each new positive
  /// order costs one forward/back substitution with the shared LU of G.
  /// j = -2 solves the t=0+ system for the initial slope; when that
  /// system is singular it is NaN and initialization_diagnostic() says
  /// why.
  const la::RealVector& mu(int j);

  /// Scalar moment at one unknown index.
  double mu(int j, std::size_t index) { return mu(j)[index]; }

  /// Pre-compute every positive moment up to and including mu_{j_max}
  /// (no-op for j_max < 0).
  void ensure(int j_max);

  /// Advance several sequences that share one MnaSystem in lock step:
  /// at each moment order the pending right-hand sides of all sequences
  /// are solved against the single cached LU of G.  Values are bitwise
  /// identical to growing each sequence lazily;
  /// this is the batch engine's "build the full-state moment vectors
  /// once" path.  Throws std::invalid_argument if the sequences do not
  /// all reference the same system.
  static void ensure_all(const std::vector<MomentSequence*>& sequences,
                         int j_max);

  /// The consistent transient initial value x_h(0+), equal to x_h0 except
  /// when the stimulus forces an instantaneous (capacitive) jump.
  /// Exactly x_h0 when x_h0 meets the t=0+ constraints; otherwise the
  /// solution of the t=0+ system.  If that system is singular, x_h0,
  /// with initialization_diagnostic() set.
  const la::RealVector& consistent_initial_value();

  /// True if x_h(0+) differs materially from x_h0 at any unknown (the
  /// circuit jumps at t=0, e.g. a capacitive divider driven by a step).
  bool has_jump(std::size_t index);

  /// Estimate of the dominant natural frequency magnitude at one output,
  /// |mu_j / mu_{j+1}| for the first usable pair -- the paper's frequency
  /// scale factor gamma (eq. 47).
  double gamma_estimate(std::size_t index);

  const la::RealVector& x_h0() const { return x_h0_; }

  /// Set when the t=0+ system proved singular (SingularPivot): the t=0+
  /// state is not determined by the circuit, e.g. a controlled source
  /// copies a voltage source's impulse current into a node without
  /// capacitance.  No jump correction is applied.
  const std::optional<Diagnostic>& initialization_diagnostic() const {
    return init_diagnostic_;
  }

 private:
  void note_singular_initial(std::size_t pivot_index);

  const mna::MnaSystem* mna_;
  la::RealVector x_h0_;
  std::vector<la::RealVector> positive_;  // M_0, M_1, ...
  la::RealVector mu_minus1_;
  bool have_minus2_ = false;
  la::RealVector mu_minus2_;
  bool have_consistent_ = false;
  la::RealVector consistent_x0_;
  std::optional<Diagnostic> init_diagnostic_;
};

/// The actual natural frequencies of the circuit: p = -1/lambda for the
/// nonzero eigenvalues lambda of W = G^{-1} C.  Used for the paper's
/// Tables I and II ("actual poles") and for pole-creep tests.  O(n^3);
/// intended for analysis, not for the timing path.
la::ComplexVector actual_poles(const mna::MnaSystem& mna,
                               double drop_tolerance = 1e-9);

}  // namespace awesim::core
