// distribution.hpp — data distributions for the parallel algorithms.
//
// Two layers:
//  * BlockDist1D — near-equal contiguous split of a 1D index range (the
//    first `total mod parts` pieces get one extra element), used both to
//    split matrix dimensions across grid axes and to spread a flattened
//    block across a fiber (the "distributed evenly across processors
//    (p1', p2', :)" of §5);
//  * GridMap — the logical p1×p2×p3 grid: rank <-> coordinate conversion and
//    fiber enumeration (the collective groups of Algorithm 1).
#pragma once

#include <vector>

#include "core/grid.hpp"
#include "util/math.hpp"

namespace camb::mm {

using camb::i64;
using camb::core::Grid3;
using camb::core::Shape;

/// Near-equal contiguous split of [0, total) into `parts` pieces.
class BlockDist1D {
 public:
  BlockDist1D(i64 total, i64 parts);

  i64 total() const { return total_; }
  i64 parts() const { return parts_; }

  /// Size of piece i (either base or base+1).
  i64 size(i64 i) const;
  /// Start offset of piece i.
  i64 start(i64 i) const;
  /// One-past-the-end offset of piece i.
  i64 end(i64 i) const { return start(i) + size(i); }
  /// Which piece owns global index g.
  i64 owner(i64 g) const;
  /// All piece sizes as a counts vector (for collectives).
  std::vector<i64> counts() const;

 private:
  i64 total_, parts_, base_, extra_;
};

/// The logical 3D processor grid of Algorithm 1.
class GridMap {
 public:
  explicit GridMap(const Grid3& grid);

  const Grid3& grid() const { return grid_; }
  i64 nprocs() const { return grid_.total(); }

  /// Row-major rank of coordinate (q1, q2, q3).
  int rank_of(i64 q1, i64 q2, i64 q3) const;
  /// Coordinate of a rank.
  std::array<i64, 3> coords_of(int rank) const;

  /// The fiber through (q1, q2, q3) along the given axis (0, 1, or 2):
  /// the ranks of all coordinates equal in the other two axes, in axis order.
  /// These are the collective groups of Algorithm 1 (axis 2 fiber for the A
  /// All-Gather, axis 0 for B, axis 1 for the C Reduce-Scatter).
  std::vector<int> fiber(int axis, i64 q1, i64 q2, i64 q3) const;

 private:
  Grid3 grid_;
};

/// Metadata describing the sub-block of a matrix owned collectively by a
/// grid fiber, and this rank's flat chunk within it.
struct BlockChunk {
  i64 row0 = 0, col0 = 0;   ///< block origin in the global matrix
  i64 rows = 0, cols = 0;   ///< block extent
  i64 flat_start = 0;       ///< this rank's chunk start within the flattened block
  i64 flat_size = 0;        ///< this rank's chunk size

  i64 block_size() const { return rows * cols; }
};

/// Fill a flat chunk of a block with the deterministic indexed pattern used
/// for verification (matches Matrix<T>::fill_indexed on the full matrix: the
/// same index-hash unit draw, mapped through ScalarTraits<T>::from_unit).
/// Defined for the CAMB_FOR_EACH_SCALAR set via explicit instantiation.
template <typename T = double>
std::vector<T> fill_chunk_indexed(const BlockChunk& chunk);

/// Integer-valued variant (matches Matrix::fill_indexed_int): entries are
/// small integers, so distributed sums are exact and order-independent.
/// The f64 ABFT algorithms generate their inputs with this pattern, which is
/// what licenses bit-identical checksum reconstruction after a crash.  For
/// T = i64 the plain fill_chunk_indexed already yields exact small integers
/// (ScalarTraits<i64>::from_unit), so this double-valued workaround is only
/// needed when integers must ride in doubles.  The templated form casts the
/// same small-integer draw into T (exact for every supported scalar).
template <typename T = double>
std::vector<T> fill_chunk_indexed_int(const BlockChunk& chunk);

/// The chunk filled with the integer-valued pattern when `integer_inputs`,
/// else with the plain indexed pattern.
template <typename T>
std::vector<T> fill_chunk_pattern(const BlockChunk& chunk,
                                  bool integer_inputs) {
  return integer_inputs ? fill_chunk_indexed_int<T>(chunk)
                        : fill_chunk_indexed<T>(chunk);
}

/// Block (ri, ci) of the rows x cols block split, whole: the owned block of
/// the 2D algorithms (flat_start 0, flat_size the block size).
BlockChunk full_block(const BlockDist1D& rows, i64 ri, const BlockDist1D& cols,
                      i64 ci);

}  // namespace camb::mm
