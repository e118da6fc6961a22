// Unit tests for matmul/freivalds.hpp — probabilistic product verification.
#include "matmul/freivalds.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "matmul/local_gemm.hpp"
#include "matmul/runner.hpp"
#include "util/error.hpp"

namespace camb::mm {
namespace {

using camb::core::Shape;

TEST(Freivalds, AcceptsCorrectProducts) {
  Rng rng(1);
  for (const auto& [r, k, c] :
       {std::array<i64, 3>{1, 1, 1}, {5, 7, 3}, {32, 16, 64}, {100, 3, 100}}) {
    MatrixD a(r, k), b(k, c);
    a.fill_indexed(0, 0);
    b.fill_indexed(9, 9);
    const MatrixD prod = gemm(a, b);
    EXPECT_TRUE(freivalds_check(a, b, prod, 16, rng))
        << r << "x" << k << "x" << c;
  }
}

TEST(Freivalds, RejectsSingleEntryCorruption) {
  Rng rng(2);
  MatrixD a(24, 24), b(24, 24);
  a.fill_indexed(0, 0);
  b.fill_indexed(5, 5);
  MatrixD bad = gemm(a, b);
  bad(11, 7) += 1e-3;
  // One trial misses a single corrupted entry iff x[7] = 0 (prob 1/2);
  // 32 trials make a false accept essentially impossible.
  EXPECT_FALSE(freivalds_check(a, b, bad, 32, rng));
}

/// A non-finite entry in C must fail both result checks, wherever it sits:
/// the residual folds propagate NaN instead of dropping it the way
/// std::max(worst, NaN) == worst would.
TEST(Freivalds, NonFiniteEntriesFailBothCheckers) {
  const Shape shape{16, 12, 20};
  MatrixD a(shape.n1, shape.n2), b(shape.n2, shape.n3);
  a.fill_indexed(0, 0);
  b.fill_indexed(0, 0);
  const MatrixD good = gemm(a, b);
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    for (i64 row : {i64{0}, shape.n1 - 1}) {
      MatrixD c = good;
      c(row, 7) = bad;
      const std::string what =
          std::to_string(bad) + " at row " + std::to_string(row);
      Rng rng(5);
      EXPECT_FALSE(freivalds_check(a, b, c, 16, rng)) << what;
      Rng rng2(5);
      EXPECT_FALSE(freivalds_residual(a, b, c, 16, rng2) <= 1.0) << what;
      EXPECT_FALSE(c.max_abs_diff(good) <= 1.0) << what;
      EXPECT_FALSE(good.max_abs_diff(c) <= 1.0) << what;
      EXPECT_FALSE(check_result(shape, c, VerifyMode::kReference) <= 1.0)
          << what;
      EXPECT_FALSE(check_result(shape, c, VerifyMode::kFreivalds) <= 1.0)
          << what;
    }
  }
}

TEST(Freivalds, RejectsTransposedResult) {
  Rng rng(3);
  MatrixD a(16, 16), b(16, 16);
  a.fill_indexed(0, 0);
  b.fill_indexed(3, 1);
  const MatrixD good = gemm(a, b);
  MatrixD transposed(16, 16);
  for (i64 i = 0; i < 16; ++i) {
    for (i64 j = 0; j < 16; ++j) transposed(i, j) = good(j, i);
  }
  EXPECT_FALSE(freivalds_check(a, b, transposed, 32, rng));
}

TEST(Freivalds, ResidualIsTinyForCorrectAndLargeForWrong) {
  Rng rng(4);
  MatrixD a(20, 20), b(20, 20);
  a.fill_indexed(0, 0);
  b.fill_indexed(2, 8);
  const MatrixD good = gemm(a, b);
  EXPECT_LT(freivalds_residual(a, b, good, 8, rng), 1e-12);
  MatrixD bad = good;
  bad(0, 0) += 1.0;
  EXPECT_GT(freivalds_residual(a, b, bad, 32, rng), 1e-6);
}

TEST(Freivalds, ShapeChecks) {
  // Both entry points share one validation: mismatched operands and a
  // non-positive trial count fail fast instead of reading out of bounds or
  // reporting an unchecked product as verified.
  Rng rng(5);
  MatrixD a(3, 4), b(5, 3), c(3, 3);
  EXPECT_THROW(freivalds_check(a, b, c, 4, rng), Error);
  EXPECT_THROW(freivalds_residual(a, b, c, 4, rng), Error);
  MatrixD b_ok(4, 3), c_wide(3, 4), c_tall(4, 3);
  EXPECT_THROW(freivalds_residual(a, b_ok, c_wide, 4, rng), Error);
  EXPECT_THROW(freivalds_residual(a, b_ok, c_tall, 4, rng), Error);
  const MatrixD good = gemm(a, b_ok);
  for (int trials : {0, -1}) {
    EXPECT_THROW(freivalds_check(a, b_ok, good, trials, rng), Error);
    EXPECT_THROW(freivalds_residual(a, b_ok, good, trials, rng), Error);
  }
  EXPECT_NO_THROW(freivalds_residual(a, b_ok, good, 1, rng));
}

TEST(Freivalds, RunnerAutoModeUsesItForLargeShapes) {
  // A shape above the auto threshold still gets verified (via Freivalds);
  // the report carries a residual, not NaN.
  const Shape shape{512, 512, 512};  // 134M flops > auto threshold
  const auto report = run_grid3d(
      Grid3dConfig{shape, camb::core::Grid3{4, 4, 4}}, VerifyMode::kAuto);
  EXPECT_TRUE(report.verified);
  EXPECT_FALSE(std::isnan(report.max_abs_error));
  EXPECT_LT(report.max_abs_error, 1e-9);
}

TEST(Freivalds, RunnerReferenceAndFreivaldsAgreeOnSmallShapes) {
  const Shape shape{24, 24, 24};
  const auto ref = run_grid3d(
      Grid3dConfig{shape, camb::core::Grid3{2, 2, 2}}, VerifyMode::kReference);
  const auto fre = run_grid3d(
      Grid3dConfig{shape, camb::core::Grid3{2, 2, 2}}, VerifyMode::kFreivalds);
  EXPECT_LT(ref.max_abs_error, 1e-10);
  EXPECT_LT(fre.max_abs_error, 1e-10);
}

}  // namespace
}  // namespace camb::mm
