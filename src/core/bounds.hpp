// bounds.hpp — §4.3: the paper's main result.
//
// Theorem 3 (memory-independent lower bound): any parallel algorithm on P
// processors that starts with one copy of the inputs, ends with one copy of
// the output, and load balances computation or data must communicate at least
// D − (mn + mk + nk)/P words, where D is the three-case expression below.
// Corollary 4 specializes to square matrices.  §6.2 relates this to the
// memory-dependent bound 2mnk/(P·sqrt(M)).
#pragma once

#include "core/dims.hpp"
#include "core/optimization.hpp"

namespace camb::core {

/// The evaluated Theorem 3 bound for one (shape, P) instance.
struct BoundResult {
  RegimeCase regime = RegimeCase::kThreeD;
  double leading_term = 0;  ///< nk, (mnk^2/P)^{1/2}, or (mnk/P)^{2/3}
  double constant = 0;      ///< 1, 2, or 3 — the paper's tight constants
  double D = 0;             ///< the case expression of Theorem 3
  double owned = 0;         ///< (mn + mk + nk)/P — data a processor may own
  double words = 0;         ///< the bound: D − owned (clamped at 0)
};

/// The sorted-dimension products Theorem 3 consumes (m >= n >= k), each
/// formed once in the formula's left-associative order, so a cached copy
/// evaluates the bound bit for bit.  The regime boundaries are those of
/// classify_regime (the arXiv:1202.3177 strong-scaling crossings).
struct BoundProducts {
  double m = 1, n = 1, k = 1;
  double mn = 1;           ///< m * n
  double mk = 1;           ///< m * k
  double nk = 1;           ///< n * k
  double mnk = 1;          ///< (m * n) * k
  double mnkk = 1;         ///< ((m * n) * k) * k
  double faces = 3;        ///< (m*n + m*k) + n*k — the owned numerator
  double boundary_1d = 1;  ///< P1 = m / n: 1D up to here
  double boundary_2d = 1;  ///< P2 = (m * n) / (k * k): 2D up to here
};
BoundProducts bound_products(double m, double n, double k);

/// Theorem 3 on cached products: the one evaluator of the bound's
/// expression.  Does not validate (see memory_independent_bound_sorted).
BoundResult memory_independent_bound_at(const BoundProducts& x, double P);

/// Theorem 3 in sorted dimensions (m >= n >= k).
BoundResult memory_independent_bound_sorted(double m, double n, double k,
                                            double P);

/// Theorem 3 for a raw shape (sorts internally).
BoundResult memory_independent_bound(const Shape& shape, double P);

/// Corollary 4: square n×n matrices — 3 n^2 / P^{2/3} − 3 n^2 / P.
double square_bound(double n, double P);

/// Leading term of the memory-dependent bound (Smith et al. 2019 constant):
/// 2 m n k / (P sqrt(M)).
double memory_dependent_leading(double m, double n, double k, double P,
                                double M);

/// The two bounds combined (§6.2): any algorithm must communicate at least
/// max(memory-independent, memory-dependent) words.
struct CombinedBound {
  double mem_independent = 0;
  double mem_dependent = 0;
  double words = 0;  ///< max of the two
  bool mem_dependent_dominates = false;
};
CombinedBound tightest_bound(double m, double n, double k, double P, double M);

/// §6.2: the memory-dependent bound dominates the 3rd-case memory-independent
/// bound exactly when mn/k^2 < P <= (8/27) mnk / M^{3/2}.  Returns that upper
/// threshold on P.
double memory_dependent_dominance_threshold(double m, double n, double k,
                                            double M);

/// §6.2: minimum local memory for which Alg. 1's 3D-grid footprint fits —
/// M >= (4/9)^{-1}... expressed as the paper's condition: the 3D regime
/// analysis requires M >= (4/9) (mnk/P)^{2/3} to avoid the limited-memory
/// scenario.  Returns (4/9)·(mnk/P)^{2/3}.
double sufficient_memory_threshold(double m, double n, double k, double P);

/// Consistency check used by tests: Theorem 3's D equals the optimum of
/// Lemma 2's optimization problem (they are the same quantity by the proof).
double lemma2_objective(double m, double n, double k, double P);

}  // namespace camb::core
