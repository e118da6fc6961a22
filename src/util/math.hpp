// math.hpp — integer and floating utilities used throughout the library.
//
// The bound formulas (Theorem 3, eq. 3) mix exact integer quantities
// (dimensions, processor counts, word counts) with real-valued optima
// (fractional grids, 2/3 powers).  Integer quantities use std::int64_t and
// overflow-checked products; real quantities use double.
#pragma once

#include <cstdint>
#include <vector>

namespace camb {

using i64 = std::int64_t;

/// ceil(a / b) for positive integers.
i64 ceil_div(i64 a, i64 b);

/// Overflow-checked product of two non-negative i64; throws camb::Error on
/// overflow.  Dimensions up to ~1e6 cubed fit comfortably in i64; this guards
/// against misuse at larger scales.
i64 checked_mul(i64 a, i64 b);

/// Overflow-checked triple product a*b*c.
i64 checked_mul3(i64 a, i64 b, i64 c);

/// True if `d` divides `n` exactly (n >= 0, d > 0).
bool divides(i64 d, i64 n);

/// All positive divisors of n (n >= 1), ascending.
std::vector<i64> divisors(i64 n);

/// divisors() into a caller-owned vector (cleared first): the allocation-free
/// form for hot loops that enumerate many n with one scratch buffer.
void divisors_into(i64 n, std::vector<i64>& out);

/// Number of positive divisors of n (the divisor function d(n)).
i64 divisor_count(i64 n);

/// All ordered factor triples (a, b, c) with a*b*c == p (p >= 1), in
/// lexicographic order.  Size grows as d(p)^2-ish; fine for p up to millions.
struct FactorTriple {
  i64 a, b, c;

  bool operator==(const FactorTriple&) const = default;
};
std::vector<FactorTriple> factor_triples(i64 p);

/// Exact count of ordered factor triples of p without materializing them:
/// the 3-dimensional divisor function d_3(p) = prod (e_i+1)(e_i+2)/2 over
/// the prime factorization p = prod q_i^{e_i}.  factor_triples_into reserves
/// from (and asserts against) this closed form.
i64 factor_triple_count(i64 p);

/// Reusable divisor scratch for factor_triples_into, so repeated enumeration
/// (e.g. the at-most grid search walking every p <= P) allocates nothing
/// after warm-up.
struct FactorScratch {
  std::vector<i64> outer, inner;
};

/// factor_triples() into a caller-owned vector (cleared first), reserved
/// exactly from the d_3 closed form.  The overload without scratch owns a
/// temporary one.
void factor_triples_into(i64 p, std::vector<FactorTriple>& out,
                         FactorScratch& scratch);
void factor_triples_into(i64 p, std::vector<FactorTriple>& out);

/// Largest integer r with r*r <= n.
i64 isqrt(i64 n);

/// Largest integer r with r*r*r <= n.
i64 icbrt(i64 n);

/// Integer power base^exp with overflow check (exp >= 0).
i64 ipow(i64 base, int exp);

/// True if x is within `rel` relative tolerance (or `abs_tol` absolute, for
/// values near zero) of y.
bool approx_eq(double x, double y, double rel = 1e-9, double abs_tol = 1e-12);

/// max(a, b) that never drops a NaN: std::max(a, NaN) returns a, so a
/// residual fold built on it reports a NaN-poisoned result as clean.  Here a
/// NaN on either side wins and then sticks; on finite values the result is
/// bit-identical to std::max(a, b).
inline double nan_max(double a, double b) { return (b > a || b != b) ? b : a; }

/// Median of three values.
double median3(double a, double b, double c);
i64 median3(i64 a, i64 b, i64 c);

}  // namespace camb
