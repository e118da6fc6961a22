// checkpoint.hpp — per-rank in-memory checkpoint store for rollback
// recovery.
//
// A Snapshot is an epoch-stamped capture of a rank's live algorithm buffers
// at an outer-loop boundary (a SUMMA panel, a Cannon shift, a recursion
// level).  Each *logical* rank commits its snapshot locally and replicates
// it to a deterministic buddy (logical (L + stride) mod P), so any single
// failure leaves at least one copy of every epoch reachable: the rank's own
// copy, or the buddy's ward copy.  The store is keyed by (logical rank,
// epoch) because spare substitution can re-host a logical rank on a
// different physical rank mid-run.
//
// Epoch numbering: epoch e >= 1 means "state after completing the first
// e * interval boundary steps".  Epoch 0 is the virtual initial state —
// never stored, always recoverable, because every algorithm's inputs are
// pure functions of logical position (fill_chunk_indexed and friends).
#pragma once

#include <map>
#include <vector>

#include "util/error.hpp"
#include "util/math.hpp"
#include "util/scalar.hpp"

namespace camb {

/// One epoch-stamped capture of a rank's live buffers, in the run's scalar.
template <typename T>
struct SnapshotT {
  i64 epoch = 0;
  std::vector<std::vector<T>> bufs;
};
using Snapshot = SnapshotT<double>;

/// A snapshot of the given buffers; the commit stamps the epoch.
template <typename T>
SnapshotT<T> snapshot_of(std::vector<std::vector<T>> bufs) {
  SnapshotT<T> snap;
  snap.bufs = std::move(bufs);
  return snap;
}

/// Wire format: [epoch, nbufs, size_0 .. size_{n-1}, buf_0 .. buf_{n-1}].
/// Exact element count: 2 + nbufs + sum of sizes.  The header values travel
/// as scalars of T so the whole wire is one homogeneous payload; epochs and
/// buffer sizes at simulated scales are small integers, exact in every
/// supported scalar (f32 holds integers exactly up to 2^24).
template <typename T>
std::vector<T> snapshot_to_wire(const SnapshotT<T>& snap);
template <typename T>
SnapshotT<T> snapshot_from_wire(const std::vector<T>& wire);

/// Elements snapshot_to_wire would produce for buffer sizes `sizes` (scale
/// by the dtype width to land in 8-byte words).
inline i64 snapshot_wire_words(const std::vector<i64>& sizes) {
  i64 total = 2 + static_cast<i64>(sizes.size());
  for (i64 s : sizes) total += s;
  return total;
}

/// Buddy placement on logical ranks: L's snapshots replicate to buddy(L);
/// symmetrically L wards (holds copies for) ward(L).  stride is reduced mod
/// P, so P == 1 degenerates to self-buddying (self-sends are free).
inline int ckpt_buddy(int logical, int nprocs, int stride) {
  CAMB_CHECK(nprocs >= 1 && logical >= 0 && logical < nprocs && stride >= 1);
  return (logical + stride % nprocs) % nprocs;
}
inline int ckpt_ward(int logical, int nprocs, int stride) {
  CAMB_CHECK(nprocs >= 1 && logical >= 0 && logical < nprocs && stride >= 1);
  return (logical - stride % nprocs + nprocs) % nprocs;
}

/// The per-physical-rank store: this rank's own snapshots (for the logical
/// rank it currently hosts) plus the ward copies it holds for its buddy's
/// ward.  reset() clears everything — called when spare substitution
/// changes which logical rank this physical rank hosts, because the stored
/// epochs describe a different identity's state.
template <typename T>
class CheckpointStoreT {
 public:
  void put_own(SnapshotT<T> snap) {
    CAMB_CHECK(snap.epoch >= 1);
    const i64 e = snap.epoch;
    own_[e] = std::move(snap);
    if (own_lo_ == 0) own_lo_ = e;
    own_committed_ = std::max(own_committed_, e);
  }

  void put_ward(SnapshotT<T> snap) {
    CAMB_CHECK(snap.epoch >= 1);
    const i64 e = snap.epoch;
    ward_[e] = std::move(snap);
    if (ward_lo_ == 0) ward_lo_ = e;
    ward_hi_ = std::max(ward_hi_, e);
  }

  /// nullptr when the epoch is absent.
  const SnapshotT<T>* own(i64 epoch) const {
    auto it = own_.find(epoch);
    return it == own_.end() ? nullptr : &it->second;
  }
  const SnapshotT<T>* ward(i64 epoch) const {
    auto it = ward_.find(epoch);
    return it == ward_.end() ? nullptr : &it->second;
  }

  /// Newest own epoch committed (0 = none); lowest own epoch held.
  i64 own_committed() const { return own_committed_; }
  i64 own_lo() const { return own_lo_; }
  /// Contiguity is guaranteed by the commit protocol (epochs arrive in
  /// order), so [ward_lo, ward_hi] describes exactly what is restorable.
  i64 ward_lo() const { return ward_lo_; }
  i64 ward_hi() const { return ward_hi_; }

  void reset() {
    own_.clear();
    ward_.clear();
    own_committed_ = own_lo_ = ward_lo_ = ward_hi_ = 0;
  }

 private:
  std::map<i64, SnapshotT<T>> own_;
  std::map<i64, SnapshotT<T>> ward_;
  i64 own_committed_ = 0;
  i64 own_lo_ = 0;
  i64 ward_lo_ = 0;
  i64 ward_hi_ = 0;
};
using CheckpointStore = CheckpointStoreT<double>;

}  // namespace camb
