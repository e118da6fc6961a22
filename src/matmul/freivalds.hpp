// freivalds.hpp — probabilistic verification of matrix products.
//
// Freivalds' check: for random x, compare A(Bx) with Cx in O(n^2) time.  A
// wrong product escapes one trial with probability <= 1/2 (for {0,1} x), so
// `trials` independent draws bound the false-accept probability by 2^-trials.
// The runner uses this for shapes too large to verify against the cubic-time
// serial reference, so even the biggest benchmark runs stay checked.
//
// All trials run as one batched pass: the {0,1} vectors form an n3 x trials
// block X, and the checker forms BX, then A(BX) and CX, reading each operand
// once instead of once per trial.  Rows are split across the worker pool.
// Each (row, trial) sum still runs over ascending j exactly as the
// one-vector-at-a-time loop summed it, and per-worker maxima combine with
// max, which is exact — so every residual is bit-identical to the sequential
// per-trial loop at every thread width.  The checker never calls a GEMM
// kernel: it stays independent of the code it checks.
//
// Entries are widened to double through ScalarTraits<T>::to_double and every
// sum is accumulated at double precision.  For f32 data that means the
// *check* never loses precision the data itself didn't already lose — only
// the tolerance has to admit the f32 rounding that happened inside the
// product under test (see freivalds_default_tol).
#pragma once

#include <functional>
#include <vector>

#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/scalar.hpp"

namespace camb::mm {

using camb::i64;
using camb::MatrixD;
using camb::Rng;

/// Per-dtype residual tolerance: the product under test accumulated in T, so
/// the normalized residual is bounded by roughly n2 * eps(T).  Exact scalars
/// leave residual exactly zero (all arithmetic below 2^53 is exact in the
/// double-precision check); f32 products carry single-precision rounding.
template <typename T>
constexpr double freivalds_default_tol() {
  if constexpr (ScalarTraits<T>::exact) {
    return 0.0;
  } else if constexpr (sizeof(T) == sizeof(float) &&
                       !ScalarTraits<T>::exact) {
    return 1e-3;  // f32: ~n2 * 2^-24 with headroom for large n2
  } else {
    return 1e-9;  // double / kahan
  }
}

/// One operand of a check, read a row at a time: `fill(i, out)` writes the
/// `cols` entries of row i, widened to double, to out.  Called concurrently
/// from several workers, each with its own `out`.
struct RowSource {
  i64 rows = 0, cols = 0;
  std::function<void(i64 row, double* out)> fill;
};

/// A materialized matrix as a row source (valid while `m` lives).
template <typename T>
RowSource matrix_rows(const Matrix<T>& m);

/// The library's global input pattern (indexed_entry, or indexed_int_entry
/// when `integer`) as a rows x cols row source, generated on the fly — bit
/// for bit the rows of a matrix filled by fill_indexed(0, 0) /
/// fill_indexed_int(0, 0), without materializing it.
template <typename T>
RowSource indexed_rows(i64 rows, i64 cols, bool integer);

/// The checker: runs `trials` Freivalds trials as one batched pass and
/// returns each trial's residual max_i |(A(Bx) - Cx)_i| / scale, where scale
/// is max(1, max_i sum_j |A_ij (Bx)_j|).  The vectors are drawn up front in
/// trial order, n3 draws each, so `rng` ends where the per-trial loop left
/// it.  `workers` <= 0 picks the hardware width.  Fails fast with an Error
/// naming the problem on mismatched shapes, a missing row source or
/// trials < 1.
std::vector<double> freivalds_trials(const RowSource& a, const RowSource& b,
                                     const RowSource& c, int trials, Rng& rng,
                                     int workers = 0);

/// The largest residual over `trials` checks — for reporting rather than
/// pass/fail.
double freivalds_residual(const RowSource& a, const RowSource& b,
                          const RowSource& c, int trials, Rng& rng);

template <typename T>
double freivalds_residual(const Matrix<T>& a, const Matrix<T>& b,
                          const Matrix<T>& c, int trials, Rng& rng) {
  return freivalds_residual(matrix_rows(a), matrix_rows(b), matrix_rows(c),
                            trials, rng);
}

/// True iff C == A*B passes `trials` Freivalds checks with random {0,1}
/// vectors: every trial's residual is at most `tol` (a NaN residual fails).
template <typename T>
bool freivalds_check(const Matrix<T>& a, const Matrix<T>& b,
                     const Matrix<T>& c, int trials, Rng& rng,
                     double tol = freivalds_default_tol<T>()) {
  for (double r : freivalds_trials(matrix_rows(a), matrix_rows(b),
                                   matrix_rows(c), trials, rng)) {
    if (!(r <= tol)) return false;
  }
  return true;
}

}  // namespace camb::mm
