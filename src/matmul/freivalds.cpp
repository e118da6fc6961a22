#include "matmul/freivalds.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "machine/worker_pool.hpp"
#include "util/error.hpp"

namespace camb::mm {

namespace {

/// Trials per register block.  X and BX are stored block-major: block k
/// holds trials [k*kLanes, (k+1)*kLanes), one kLanes-wide row per index, and
/// trials past the requested count are zero vectors whose results are
/// dropped.
constexpr int kLanes = 8;

/// Rows of B (or of C) per kernel call.
constexpr int kRows = 2;

/// Offset of row i of lane block `blk` in a block-major buffer of `rows`
/// rows (X has n3 rows, BX has n2).
std::size_t at(std::size_t blk, i64 rows, i64 i) {
  const auto row = static_cast<std::size_t>(rows);
  return (blk * row + static_cast<std::size_t>(i)) * kLanes;
}

std::string dims(const RowSource& m) {
  return std::to_string(m.rows) + "x" + std::to_string(m.cols);
}

/// The one validation both entry points share.
void validate(const RowSource& a, const RowSource& b, const RowSource& c,
              int trials) {
  if (a.cols != b.rows) {
    throw Error("freivalds: inner dimensions disagree (A is " + dims(a) +
                ", B is " + dims(b) + ")");
  }
  if (c.rows != a.rows || c.cols != b.cols) {
    throw Error("freivalds: product shape mismatch (C is " + dims(c) +
                ", A*B is " + std::to_string(a.rows) + "x" +
                std::to_string(b.cols) + ")");
  }
  if (!a.fill || !b.fill || !c.fill) {
    throw Error("freivalds: operand has no row source");
  }
  if (trials < 1) {
    throw Error("freivalds: need at least one trial, got " +
                std::to_string(trials));
  }
}

/// s[r * kLanes + l] = sum over ascending j of v[r * n + j] * m[j * kLanes + l]
/// for R rows of v at once, one lane per trial.  The rows share every load
/// of m, and the R * kLanes independent sums hide the add latency; each sum
/// still runs in the order the one-vector loop summed it.
template <int R>
void lane_dot(const double* v, const double* m, i64 n, double* s) {
  double acc[R][kLanes] = {};
  for (i64 j = 0; j < n; ++j) {
    const double* mj = m + j * kLanes;
    for (int r = 0; r < R; ++r) {
      const double vj = v[r * n + j];
      for (int l = 0; l < kLanes; ++l) acc[r][l] += vj * mj[l];
    }
  }
  for (int r = 0; r < R; ++r) {
    std::copy(acc[r], acc[r] + kLanes, s + r * kLanes);
  }
}

/// lane_dot over `count` rows, 1 or kRows (a range's odd last row).
void rows_dot(int count, const double* v, const double* m, i64 n, double* s) {
  if (count == kRows) {
    lane_dot<kRows>(v, m, n, s);
  } else {
    lane_dot<1>(v, m, n, s);
  }
}

/// lane_dot for one row plus the magnitude sums |v[j] * m[j * kLanes + l]|
/// that set the residual's scale.
void lane_dot_mag(const double* v, const double* m, i64 n, double* s,
                  double* mag) {
  double acc[kLanes] = {};
  double acc_mag[kLanes] = {};
  for (i64 j = 0; j < n; ++j) {
    const double vj = v[j];
    const double* mj = m + j * kLanes;
    for (int l = 0; l < kLanes; ++l) {
      acc[l] += vj * mj[l];
      acc_mag[l] += std::abs(vj * mj[l]);
    }
  }
  std::copy(acc, acc + kLanes, s);
  std::copy(acc_mag, acc_mag + kLanes, mag);
}

/// Run body(worker, begin, end) over `rows` split into contiguous ranges,
/// one per worker (at most `width`, at most one per row), and rethrow the
/// first failure on the calling thread.
template <typename Body>
void split_rows(int width, i64 rows, const Body& body) {
  if (rows == 0) return;
  width = static_cast<int>(std::min<i64>(width, rows));
  if (width == 1) {
    body(0, 0, rows);
    return;
  }
  std::exception_ptr failure;
  std::mutex failure_mutex;
  WorkerPool::instance().run(width, [&](int w) {
    try {
      body(w, rows * w / width, rows * (w + 1) / width);
    } catch (...) {
      std::lock_guard<std::mutex> lock(failure_mutex);
      if (!failure) failure = std::current_exception();
    }
  });
  if (failure) std::rethrow_exception(failure);
}

}  // namespace

std::vector<double> freivalds_trials(const RowSource& a, const RowSource& b,
                                     const RowSource& c, int trials, Rng& rng,
                                     int workers) {
  validate(a, b, c, trials);
  const i64 n1 = a.rows, n2 = a.cols, n3 = b.cols;
  const auto blocks = static_cast<std::size_t>((trials + kLanes - 1) / kLanes);
  const std::size_t lanes = blocks * kLanes;
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  const int width = std::max(1, workers > 0 ? workers : hardware);

  // X: trial t's vector in lane t, drawn in trial order, n3 draws a trial.
  std::vector<double> x(lanes * static_cast<std::size_t>(n3), 0.0);
  for (int t = 0; t < trials; ++t) {
    const std::size_t blk = static_cast<std::size_t>(t) / kLanes;
    const std::size_t lane = static_cast<std::size_t>(t) % kLanes;
    for (i64 j = 0; j < n3; ++j) {
      x[at(blk, n3, j) + lane] = (rng() & 1) ? 1.0 : 0.0;
    }
  }

  // Y = B X, kRows rows of B per step.
  std::vector<double> y(lanes * static_cast<std::size_t>(n2), 0.0);
  split_rows(width, n2, [&](int, i64 begin, i64 end) {
    std::vector<double> rows(static_cast<std::size_t>(kRows * n3));
    for (i64 i = begin; i < end; i += kRows) {
      const int count = i + 1 < end ? kRows : 1;
      for (int r = 0; r < count; ++r) b.fill(i + r, rows.data() + r * n3);
      for (std::size_t blk = 0; blk < blocks; ++blk) {
        rows_dot(count, rows.data(), x.data() + at(blk, n3, 0), n3,
                 y.data() + at(blk, n2, i));
      }
    }
  });

  // Z = A Y and W = C X, kRows rows of A and C per step; each worker keeps
  // its own per-trial maxima of |z - w| and of the magnitude sum.
  std::vector<std::vector<double>> worst(
      static_cast<std::size_t>(width), std::vector<double>(lanes, 0.0));
  std::vector<std::vector<double>> scale(
      static_cast<std::size_t>(width), std::vector<double>(lanes, 1.0));
  split_rows(width, n1, [&](int w, i64 begin, i64 end) {
    std::vector<double> arows(static_cast<std::size_t>(kRows * n2));
    std::vector<double> crows(static_cast<std::size_t>(kRows * n3));
    double* my_worst = worst[static_cast<std::size_t>(w)].data();
    double* my_scale = scale[static_cast<std::size_t>(w)].data();
    double z[kLanes], mag[kLanes], cx[kRows * kLanes];
    for (i64 i = begin; i < end; i += kRows) {
      const int count = i + 1 < end ? kRows : 1;
      for (int r = 0; r < count; ++r) {
        a.fill(i + r, arows.data() + r * n2);
        c.fill(i + r, crows.data() + r * n3);
      }
      for (std::size_t blk = 0; blk < blocks; ++blk) {
        rows_dot(count, crows.data(), x.data() + at(blk, n3, 0), n3, cx);
        for (int r = 0; r < count; ++r) {
          lane_dot_mag(arows.data() + r * n2, y.data() + at(blk, n2, 0), n2,
                       z, mag);
          for (int l = 0; l < kLanes; ++l) {
            const std::size_t t = blk * kLanes + static_cast<std::size_t>(l);
            my_worst[t] =
                nan_max(my_worst[t], std::abs(z[l] - cx[r * kLanes + l]));
            my_scale[t] = std::max(my_scale[t], mag[l]);
          }
        }
      }
    }
  });

  std::vector<double> residuals(static_cast<std::size_t>(trials));
  for (std::size_t t = 0; t < residuals.size(); ++t) {
    double wt = 0.0, st = 1.0;
    for (int w = 0; w < width; ++w) {
      wt = nan_max(wt, worst[static_cast<std::size_t>(w)][t]);
      st = std::max(st, scale[static_cast<std::size_t>(w)][t]);
    }
    residuals[t] = wt / st;
  }
  return residuals;
}

double freivalds_residual(const RowSource& a, const RowSource& b,
                          const RowSource& c, int trials, Rng& rng) {
  double worst = 0.0;
  for (double r : freivalds_trials(a, b, c, trials, rng)) {
    worst = nan_max(worst, r);
  }
  return worst;
}

template <typename T>
RowSource matrix_rows(const Matrix<T>& m) {
  RowSource src{m.rows(), m.cols(), {}};
  src.fill = [&m](i64 i, double* out) {
    const T* row = m.data() + i * m.cols();
    for (i64 j = 0; j < m.cols(); ++j) {
      out[j] = ScalarTraits<T>::to_double(row[j]);
    }
  };
  return src;
}

template <typename T>
RowSource indexed_rows(i64 rows, i64 cols, bool integer) {
  CAMB_CHECK_MSG(rows >= 0 && cols >= 0, "pattern dimensions must be >= 0");
  RowSource src{rows, cols, {}};
  src.fill = [cols, integer](i64 i, double* out) {
    for (i64 j = 0; j < cols; ++j) {
      out[j] = ScalarTraits<T>::to_double(integer ? indexed_int_entry<T>(i, j)
                                                  : indexed_entry<T>(i, j));
    }
  };
  return src;
}

#define CAMB_INSTANTIATE(T)                            \
  template RowSource matrix_rows<T>(const Matrix<T>&); \
  template RowSource indexed_rows<T>(i64, i64, bool);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

}  // namespace camb::mm
