// The batched, row-parallel Freivalds checker against the one-vector-at-a-time
// loop it replaced, bit for bit: every per-trial residual, at every thread
// width, for every dtype and both input patterns; corrupted products still
// rejected; the on-the-fly pattern operands equal the filled matrices; and
// the caller's Rng ends where the per-trial loop left it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "matmul/freivalds.hpp"
#include "matmul/local_gemm.hpp"
#include "matmul/runner.hpp"

namespace camb::mm {
namespace {

/// The oracle: one trial of the sequential per-trial checker, as it ran
/// before trials were batched.  Draws x, forms y = B x, then per row of A
/// and C the residual |(A y)_i - (C x)_i| and the magnitude scale.
template <typename T>
double oracle_trial(const Matrix<T>& a, const Matrix<T>& b,
                    const Matrix<T>& c, Rng& rng) {
  const i64 n1 = a.rows(), n2 = a.cols(), n3 = b.cols();
  std::vector<double> x(static_cast<std::size_t>(n3));
  for (auto& v : x) v = (rng() & 1) ? 1.0 : 0.0;

  std::vector<double> y(static_cast<std::size_t>(n2), 0.0);
  for (i64 i = 0; i < n2; ++i) {
    double acc = 0.0;
    const T* brow = b.data() + i * n3;
    for (i64 j = 0; j < n3; ++j) {
      const double bv = ScalarTraits<T>::to_double(brow[j]);
      acc += bv * x[static_cast<std::size_t>(j)];
    }
    y[static_cast<std::size_t>(i)] = acc;
  }
  double worst = 0.0;
  double scale = 1.0;
  for (i64 i = 0; i < n1; ++i) {
    double z = 0.0, z_mag = 0.0;
    const T* arow = a.data() + i * n2;
    for (i64 j = 0; j < n2; ++j) {
      const double av = ScalarTraits<T>::to_double(arow[j]);
      z += av * y[static_cast<std::size_t>(j)];
      z_mag += std::abs(av * y[static_cast<std::size_t>(j)]);
    }
    double w = 0.0;
    const T* crow = c.data() + i * n3;
    for (i64 j = 0; j < n3; ++j) {
      const double cv = ScalarTraits<T>::to_double(crow[j]);
      w += cv * x[static_cast<std::size_t>(j)];
    }
    worst = std::max(worst, std::abs(z - w));
    scale = std::max(scale, z_mag);
  }
  return worst / scale;
}

template <typename T>
std::vector<double> oracle_trials(const Matrix<T>& a, const Matrix<T>& b,
                                  const Matrix<T>& c, int trials, Rng& rng) {
  std::vector<double> out;
  for (int t = 0; t < trials; ++t) out.push_back(oracle_trial(a, b, c, rng));
  return out;
}

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

template <typename T>
Matrix<T> pattern(i64 rows, i64 cols, bool integer) {
  Matrix<T> m(rows, cols);
  if (integer) {
    m.fill_indexed_int(0, 0);
  } else {
    m.fill_indexed(0, 0);
  }
  return m;
}

constexpr int kTrials = 24;  // the runner's trial count: three lane blocks
constexpr std::uint64_t kSeed = 0xF4E1;

const std::vector<std::array<i64, 3>> kShapes = {
    {1, 1, 1}, {97, 13, 211}, {1, 64, 1}, {300, 1, 300}, {513, 257, 129}};

std::vector<int> widths() {
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return {1, 2, 3, nproc};
}

/// Batched residuals at every width == the oracle's, bit for bit, and the
/// Rng ends in the oracle's state.
template <typename T>
void expect_matches_oracle(const Matrix<T>& a, const Matrix<T>& b,
                           const Matrix<T>& c, const std::string& what) {
  Rng oracle_rng(kSeed);
  const std::vector<double> want = oracle_trials(a, b, c, kTrials, oracle_rng);
  const std::uint64_t oracle_next = oracle_rng();
  for (int w : widths()) {
    Rng rng(kSeed);
    const std::vector<double> got = freivalds_trials(
        matrix_rows(a), matrix_rows(b), matrix_rows(c), kTrials, rng, w);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t t = 0; t < want.size(); ++t) {
      EXPECT_EQ(bits(got[t]), bits(want[t]))
          << what << " width " << w << " trial " << t << ": " << got[t]
          << " vs " << want[t];
    }
    EXPECT_EQ(rng(), oracle_next) << what << " width " << w;
  }
}

template <typename T>
class FreivaldsBatched : public ::testing::Test {};

using Scalars = ::testing::Types<double, float, i64, kahan>;
TYPED_TEST_SUITE(FreivaldsBatched, Scalars);

TYPED_TEST(FreivaldsBatched, MatchesPerTrialOracleBitForBit) {
  using T = TypeParam;
  for (bool integer : {false, true}) {
    for (const auto& [n1, n2, n3] : kShapes) {
      const Matrix<T> a = pattern<T>(n1, n2, integer);
      const Matrix<T> b = pattern<T>(n2, n3, integer);
      const Matrix<T> c = gemm(a, b);
      const std::string what = std::string(ScalarTraits<T>::name) +
                               (integer ? " int " : " indexed ") +
                               std::to_string(n1) + "x" + std::to_string(n2) +
                               "x" + std::to_string(n3);
      expect_matches_oracle(a, b, c, what);

      // The pattern generated on the fly gives the same residuals as the
      // materialized operands.
      Rng mat_rng(kSeed), fly_rng(kSeed);
      const std::vector<double> mat = freivalds_trials(
          matrix_rows(a), matrix_rows(b), matrix_rows(c), kTrials, mat_rng);
      const std::vector<double> fly = freivalds_trials(
          indexed_rows<T>(n1, n2, integer), indexed_rows<T>(n2, n3, integer),
          matrix_rows(c), kTrials, fly_rng);
      for (std::size_t t = 0; t < mat.size(); ++t) {
        EXPECT_EQ(bits(fly[t]), bits(mat[t])) << what << " trial " << t;
      }

      // A passing check leaves the caller's Rng where the per-trial loop
      // left it.
      Rng check_rng(kSeed), oracle_rng(kSeed);
      EXPECT_TRUE(freivalds_check(a, b, c, kTrials, check_rng)) << what;
      oracle_trials(a, b, c, kTrials, oracle_rng);
      EXPECT_EQ(check_rng(), oracle_rng()) << what;
    }
  }
}

TYPED_TEST(FreivaldsBatched, TrialCountsOffTheLaneBlockMatchOracle) {
  // Trial counts that leave a partly filled lane block, or one lane only.
  using T = TypeParam;
  const Matrix<T> a = pattern<T>(37, 19, false);
  const Matrix<T> b = pattern<T>(19, 41, false);
  const Matrix<T> c = gemm(a, b);
  for (int trials : {1, 7, 9, 33}) {
    Rng oracle_rng(kSeed), rng(kSeed);
    const std::vector<double> want = oracle_trials(a, b, c, trials, oracle_rng);
    const std::vector<double> got = freivalds_trials(
        matrix_rows(a), matrix_rows(b), matrix_rows(c), trials, rng, 3);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t t = 0; t < want.size(); ++t) {
      EXPECT_EQ(bits(got[t]), bits(want[t])) << trials << " trials, " << t;
    }
    EXPECT_EQ(rng(), oracle_rng()) << trials << " trials";
  }
}

TYPED_TEST(FreivaldsBatched, EmptyDimensionsMatchOracle) {
  // A zero extent leaves nothing to check: every residual is exactly 0, as
  // the per-trial loop gave, and only n3 > 0 consumes draws.
  using T = TypeParam;
  for (const auto& [n1, n2, n3] :
       {std::array<i64, 3>{0, 5, 3}, {4, 0, 6}, {3, 5, 0}}) {
    const Matrix<T> a = pattern<T>(n1, n2, false);
    const Matrix<T> b = pattern<T>(n2, n3, false);
    expect_matches_oracle(a, b, Matrix<T>(n1, n3),
                          std::to_string(n1) + "x" + std::to_string(n2) +
                              "x" + std::to_string(n3));
  }
}

TYPED_TEST(FreivaldsBatched, SingleCorruptedEntryStillRejected) {
  using T = TypeParam;
  const i64 n1 = 97, n2 = 13, n3 = 211;
  const Matrix<T> a = pattern<T>(n1, n2, false);
  const Matrix<T> b = pattern<T>(n2, n3, false);
  const Matrix<T> good = gemm(a, b);
  const std::array<std::array<i64, 2>, 3> cells = {
      {{0, 17}, {n1 - 1, 5}, {40, n3 - 1}}};  // first row, last row, last col
  for (const auto& [i, j] : cells) {
    Matrix<T> bad = good;
    bad(i, j) += static_cast<T>(1.0);
    const std::string what = std::string(ScalarTraits<T>::name) + " C(" +
                             std::to_string(i) + "," + std::to_string(j) + ")";
    Rng rng(kSeed);
    EXPECT_FALSE(freivalds_check(a, b, bad, kTrials, rng)) << what;
    expect_matches_oracle(a, b, bad, what);
  }
}

TYPED_TEST(FreivaldsBatched, OnTheFlyOperandsEqualFilledMatrices) {
  using T = TypeParam;
  const i64 rows = 37, cols = 53;
  for (bool integer : {false, true}) {
    const Matrix<T> m = pattern<T>(rows, cols, integer);
    const RowSource fly = indexed_rows<T>(rows, cols, integer);
    const RowSource mat = matrix_rows(m);
    ASSERT_EQ(fly.rows, rows);
    ASSERT_EQ(fly.cols, cols);
    std::vector<double> fly_row(static_cast<std::size_t>(cols));
    std::vector<double> mat_row(static_cast<std::size_t>(cols));
    for (i64 i = 0; i < rows; ++i) {
      fly.fill(i, fly_row.data());
      mat.fill(i, mat_row.data());
      EXPECT_EQ(std::memcmp(fly_row.data(), mat_row.data(),
                            fly_row.size() * sizeof(double)),
                0)
          << "row " << i << (integer ? " int" : " indexed");
      for (i64 j = 0; j < cols; ++j) {
        const T entry = integer ? indexed_int_entry<T>(i, j)
                                : indexed_entry<T>(i, j);
        EXPECT_EQ(std::memcmp(&entry, &m(i, j), sizeof(T)), 0)
            << "(" << i << "," << j << ")";
      }
    }
  }
}

TEST(FreivaldsBatchedRunner, CheckResultMatchesOracleOnFilledInputs) {
  // The runner's on-the-fly check reports the oracle's residual over the
  // materialized pattern matrices, bit for bit.
  const core::Shape shape{97, 13, 211};
  const Matrix<double> a = pattern<double>(shape.n1, shape.n2, false);
  const Matrix<double> b = pattern<double>(shape.n2, shape.n3, false);
  const Matrix<double> c = reference_result(shape);
  Rng rng(kSeed);
  double want = 0.0;
  for (double r : oracle_trials(a, b, c, kTrials, rng)) {
    want = std::max(want, r);
  }
  EXPECT_EQ(bits(check_result(shape, c, VerifyMode::kFreivalds)), bits(want));
}

TEST(FreivaldsBatchedRunner, CheckResultRejectsWrongShapedProduct) {
  const core::Shape shape{8, 4, 6};
  EXPECT_THROW(check_result(shape, MatrixD(8, 5), VerifyMode::kFreivalds),
               Error);
  EXPECT_THROW(check_result(shape, MatrixD(7, 6), VerifyMode::kFreivalds),
               Error);
}

}  // namespace
}  // namespace camb::mm
