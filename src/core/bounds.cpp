#include "core/bounds.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace camb::core {

BoundProducts bound_products(double m, double n, double k) {
  BoundProducts x;
  x.m = m;
  x.n = n;
  x.k = k;
  x.mn = m * n;
  x.mk = m * k;
  x.nk = n * k;
  x.mnk = x.mn * k;
  x.mnkk = x.mnk * k;
  x.faces = x.mn + x.mk + x.nk;
  x.boundary_1d = m / n;
  x.boundary_2d = x.mn / (k * k);
  return x;
}

BoundResult memory_independent_bound_at(const BoundProducts& x, double P) {
  BoundResult out;
  out.regime = P <= x.boundary_1d   ? RegimeCase::kOneD
               : P <= x.boundary_2d ? RegimeCase::kTwoD
                                    : RegimeCase::kThreeD;
  switch (out.regime) {
    case RegimeCase::kOneD:
      out.leading_term = x.nk;
      out.constant = 1.0;
      out.D = (x.mn + x.mk) / P + x.nk;
      break;
    case RegimeCase::kTwoD:
      out.leading_term = std::sqrt(x.mnkk / P);
      out.constant = 2.0;
      out.D = 2.0 * out.leading_term + x.mn / P;
      break;
    case RegimeCase::kThreeD:
      out.leading_term = std::pow(x.mnk / P, 2.0 / 3.0);
      out.constant = 3.0;
      out.D = 3.0 * out.leading_term;
      break;
  }
  out.owned = x.faces / P;
  out.words = std::max(0.0, out.D - out.owned);
  return out;
}

BoundResult memory_independent_bound_sorted(double m, double n, double k,
                                            double P) {
  Lemma2Problem{m, n, k, P}.validate();
  return memory_independent_bound_at(bound_products(m, n, k), P);
}

BoundResult memory_independent_bound(const Shape& shape, double P) {
  const SortedDims sorted = sort_dims(shape);
  return memory_independent_bound_sorted(static_cast<double>(sorted.m),
                                         static_cast<double>(sorted.n),
                                         static_cast<double>(sorted.k), P);
}

double square_bound(double n, double P) {
  CAMB_CHECK_MSG(n >= 1 && P >= 1, "need n >= 1 and P >= 1");
  return std::max(0.0, 3.0 * n * n / std::pow(P, 2.0 / 3.0) - 3.0 * n * n / P);
}

double memory_dependent_leading(double m, double n, double k, double P,
                                double M) {
  CAMB_CHECK_MSG(M > 0, "local memory must be positive");
  return 2.0 * m * n * k / (P * std::sqrt(M));
}

CombinedBound tightest_bound(double m, double n, double k, double P, double M) {
  CombinedBound out;
  out.mem_independent = memory_independent_bound_sorted(m, n, k, P).words;
  out.mem_dependent = memory_dependent_leading(m, n, k, P, M);
  out.mem_dependent_dominates = out.mem_dependent > out.mem_independent;
  out.words = std::max(out.mem_independent, out.mem_dependent);
  return out;
}

double memory_dependent_dominance_threshold(double m, double n, double k,
                                            double M) {
  CAMB_CHECK_MSG(M > 0, "local memory must be positive");
  return (8.0 / 27.0) * m * n * k / std::pow(M, 1.5);
}

double sufficient_memory_threshold(double m, double n, double k, double P) {
  return (4.0 / 9.0) * std::pow(m * n * k / P, 2.0 / 3.0);
}

double lemma2_objective(double m, double n, double k, double P) {
  return solve_analytic(Lemma2Problem{m, n, k, P}).objective;
}

}  // namespace camb::core
