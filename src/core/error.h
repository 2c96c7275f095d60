// The AWE accuracy estimate (Section 3.4 of the paper): compare the
// q-th-order approximation against the (q+1)-th-order one, which stands in
// for the unavailable exact response, via the normalized L2 distance of
// eq. (39).
//
// Everything involved is a finite sum of (possibly complex) exponentials,
// so the integrals are available in closed form:
//
//   int_0^inf t^a e^{pt} * t^b e^{qt} dt = (a+b)! / (-(p+q))^{a+b+1},
//
// valid when Re(p+q) < 0.  Two estimators are provided:
//   * exact_relative_error -- evaluates eq. (39)'s quadratic form exactly
//     (O((2q+1)^2) closed-form integrals; cheap on modern hardware);
//   * cauchy_relative_error -- the paper's Cauchy-inequality upper bound
//     (eq. 40-46) with nearest-pole pairing and the q+1 -> q term-splitting
//     rule, kept for fidelity and as an ablation subject.
#pragma once

#include <vector>

#include "core/pade.h"

namespace awesim::core {

/// Closed-form  int_0^inf f(t) g(t) dt  for two exponential-sum term sets
/// (each term: residue * t^(power-1) e^(pole t) / (power-1)!).
/// Returns +inf if any pairwise pole sum has nonnegative real part (the
/// integral diverges -- unstable approximations).
double inner_product(const std::vector<PoleResidueTerm>& f,
                     const std::vector<PoleResidueTerm>& g);

/// sqrt(int (f - g)^2 dt); +inf when divergent.
double l2_distance(const std::vector<PoleResidueTerm>& f,
                   const std::vector<PoleResidueTerm>& g);

/// The paper's normalized error (eq. 39): ||ref - approx|| / ||ref||,
/// with `ref` conventionally the (q+1)-order model.  Returns +inf when
/// either set is unstable, 0 when ref is identically zero and approx too.
double exact_relative_error(const std::vector<PoleResidueTerm>& ref,
                            const std::vector<PoleResidueTerm>& approx);

/// The Cauchy-inequality upper bound of eq. (40)-(46): terms of ref and
/// approx are paired by pole proximity, the unmatched ref term is handled
/// by splitting (eq. 42/43), and the individual integrals E_i (eq. 45)
/// are summed and inflated by (q+1).  An upper bound on the exact value;
/// the ablation.order_sweep bench case counts any sweep point below it.
/// Only simple (power == 1) terms are supported -- repeated poles fall
/// back to the exact estimator.
double cauchy_relative_error(const std::vector<PoleResidueTerm>& ref,
                             const std::vector<PoleResidueTerm>& approx);

}  // namespace awesim::core
