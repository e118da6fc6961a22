// Checkpoint layer: snapshot wire codec, the buddy store, and crash-free
// checkpointed runs of every algorithm — which must stay bit-identical to
// their un-checkpointed twins and match the exact cost prediction
// (base algorithm + commit tax + agreement flood) word for word.
#include <gtest/gtest.h>

#include "collectives/rollback.hpp"
#include "machine/checkpoint.hpp"
#include "matmul/runner.hpp"

namespace camb {
namespace {

TEST(SnapshotWire, RoundTripsEpochAndBuffers) {
  Snapshot snap;
  snap.epoch = 7;
  snap.bufs = {{1.5, -2.0, 3.25}, {}, {42.0}};
  const std::vector<double> wire = snapshot_to_wire(snap);
  EXPECT_EQ(static_cast<i64>(wire.size()), snapshot_wire_words({3, 0, 1}));
  const Snapshot back = snapshot_from_wire(wire);
  EXPECT_EQ(back.epoch, 7);
  ASSERT_EQ(back.bufs.size(), 3u);
  EXPECT_EQ(back.bufs[0], snap.bufs[0]);
  EXPECT_EQ(back.bufs[1], snap.bufs[1]);
  EXPECT_EQ(back.bufs[2], snap.bufs[2]);
}

TEST(SnapshotWire, RejectsTruncatedAndTrailingWords) {
  Snapshot snap;
  snap.epoch = 1;
  snap.bufs = {{1.0, 2.0}};
  std::vector<double> wire = snapshot_to_wire(snap);
  std::vector<double> truncated(wire.begin(), wire.end() - 1);
  EXPECT_THROW(snapshot_from_wire(truncated), Error);
  wire.push_back(0.0);
  EXPECT_THROW(snapshot_from_wire(wire), Error);
}

TEST(CheckpointStore, TracksOwnAndWardEpochRanges) {
  CheckpointStore store;
  EXPECT_EQ(store.own_committed(), 0);
  EXPECT_EQ(store.own(1), nullptr);
  Snapshot s1;
  s1.epoch = 1;
  s1.bufs = {{1.0}};
  store.put_own(std::move(s1));
  Snapshot w1;
  w1.epoch = 1;
  w1.bufs = {{2.0}};
  store.put_ward(std::move(w1));
  Snapshot w2;
  w2.epoch = 2;
  w2.bufs = {{3.0}};
  store.put_ward(std::move(w2));
  EXPECT_EQ(store.own_committed(), 1);
  EXPECT_EQ(store.ward_lo(), 1);
  EXPECT_EQ(store.ward_hi(), 2);
  ASSERT_NE(store.own(1), nullptr);
  EXPECT_EQ(store.own(1)->bufs[0][0], 1.0);
  ASSERT_NE(store.ward(2), nullptr);
  EXPECT_EQ(store.ward(2)->bufs[0][0], 3.0);
  EXPECT_EQ(store.ward(3), nullptr);
  store.reset();
  EXPECT_EQ(store.own_committed(), 0);
  EXPECT_EQ(store.ward_lo(), 0);
  EXPECT_EQ(store.own(1), nullptr);
}

TEST(CheckpointBuddy, StrideRingIsInverse) {
  for (int P : {1, 2, 5, 9}) {
    for (int stride : {1, 2, 3, 7}) {
      for (int logical = 0; logical < P; ++logical) {
        const int buddy = ckpt_buddy(logical, P, stride);
        EXPECT_EQ(ckpt_ward(buddy, P, stride), logical);
      }
    }
  }
  EXPECT_EQ(ckpt_buddy(0, 4, 1), 1);
  EXPECT_EQ(ckpt_ward(0, 4, 1), 3);
}

TEST(CkptFlood, ViewAndRecvWordFormulas) {
  // T = 9: masks are 2 x ceil(9/32) = 2 words, payload 36 words.
  EXPECT_EQ(ckpt::ckpt_flood_view_words(9), 2 + 4 * 9);
  // One sub-round (no spares): T - 1 views received.
  EXPECT_EQ(ckpt::ckpt_flood_recv_words_exact(9, 0),
            8 * ckpt::ckpt_flood_view_words(9));
  // Two spares: three sub-rounds.
  EXPECT_EQ(ckpt::ckpt_flood_recv_words_exact(10, 2),
            3 * 9 * ckpt::ckpt_flood_view_words(10));
}

/// A clean checkpointed run must (a) verify bit-exactly, (b) produce the
/// same output bits as the plain algorithm, and (c) hit its exact word-count
/// prediction, including the checkpoint tax and the agreement flood.
void expect_clean_ckpt_exact(const mm::RunReport& plain,
                             const mm::RunReport& ckpt_report,
                             const char* what) {
  ASSERT_TRUE(ckpt_report.verified) << what;
  // Bit-identical outputs carry the plain run's (fp-roundoff) residual too.
  EXPECT_EQ(ckpt_report.max_abs_error, plain.max_abs_error) << what;
  EXPECT_EQ(ckpt_report.output_hash, plain.output_hash) << what;
  EXPECT_EQ(ckpt_report.measured_critical_recv,
            ckpt_report.predicted_words())
      << what << ": " << ckpt_report.resilience.summary();
  EXPECT_TRUE(ckpt_report.resilience.enabled) << what;
  EXPECT_EQ(ckpt_report.resilience.rounds, 1) << what;
  EXPECT_EQ(ckpt_report.resilience.final_epoch, 0) << what;
  EXPECT_TRUE(ckpt_report.resilience.failed.empty()) << what;
  EXPECT_EQ(ckpt_report.resilience.restream_recv_words, 0) << what;
  EXPECT_GT(ckpt_report.resilience.flood_recv_words, 0) << what;
}

mm::RunOptions ckpt_opts(i64 interval, int spares, int stride = 1) {
  mm::RunOptions opts;
  opts.verify = mm::VerifyMode::kReference;
  opts.checkpoint.interval = interval;
  opts.checkpoint.spares = spares;
  opts.checkpoint.buddy_stride = stride;
  return opts;
}

const mm::RunOptions kPlain = mm::RunOptions::verified(mm::VerifyMode::kReference);

TEST(CheckpointClean, SummaExactWithAndWithoutSpare) {
  const mm::SummaConfig cfg{{27, 15, 12}, 3};
  const mm::RunReport plain = mm::run_summa(cfg, kPlain);
  for (int spares : {0, 1}) {
    expect_clean_ckpt_exact(plain, mm::run_summa(cfg, ckpt_opts(1, spares)),
                            "summa");
  }
  // A sparser interval commits fewer epochs: smaller tax, still exact.
  const mm::RunReport sparse = mm::run_summa(cfg, ckpt_opts(2, 1));
  expect_clean_ckpt_exact(plain, sparse, "summa interval=2");
  const mm::RunReport dense = mm::run_summa(cfg, ckpt_opts(1, 1));
  EXPECT_LT(sparse.resilience.checkpoint_recv_words,
            dense.resilience.checkpoint_recv_words);
}

TEST(CheckpointClean, SummaBuddyStrideTwoExact) {
  const mm::SummaConfig cfg{{27, 15, 12}, 3};
  const mm::RunReport plain = mm::run_summa(cfg, kPlain);
  expect_clean_ckpt_exact(plain, mm::run_summa(cfg, ckpt_opts(1, 1, 2)),
                          "summa stride=2");
}

TEST(CheckpointClean, CannonExact) {
  const mm::CannonConfig cfg{{12, 9, 6}, 3};
  const mm::RunReport plain = mm::run_cannon(cfg, kPlain);
  expect_clean_ckpt_exact(plain, mm::run_cannon(cfg, ckpt_opts(1, 1)),
                          "cannon");
}

TEST(CheckpointClean, NaiveBcastExact) {
  const mm::NaiveBcastConfig cfg{{8, 6, 4}};
  const mm::RunReport plain = mm::run_naive_bcast(cfg, 4, kPlain);
  expect_clean_ckpt_exact(plain, mm::run_naive_bcast(cfg, 4, ckpt_opts(1, 1)),
                          "naive_bcast");
}

TEST(CheckpointClean, Grid3dExact) {
  const mm::Grid3dConfig cfg{{12, 10, 8}, core::Grid3{2, 2, 2}};
  const mm::RunReport plain = mm::run_grid3d(cfg, kPlain);
  expect_clean_ckpt_exact(plain, mm::run_grid3d(cfg, ckpt_opts(1, 1)),
                          "grid3d");
}

TEST(CheckpointClean, Grid3dAgarwalExact) {
  const mm::Grid3dAgarwalConfig cfg{{12, 10, 8}, core::Grid3{2, 2, 2}};
  const mm::RunReport plain = mm::run_grid3d_agarwal(cfg, kPlain);
  expect_clean_ckpt_exact(plain, mm::run_grid3d_agarwal(cfg, ckpt_opts(1, 1)),
                          "grid3d_agarwal");
}

TEST(CheckpointClean, Grid3dStagedExact) {
  mm::Grid3dStagedConfig cfg;
  cfg.shape = {12, 12, 8};
  cfg.grid = core::Grid3{2, 2, 2};
  cfg.stages = 3;
  const mm::RunReport plain = mm::run_grid3d_staged(cfg, kPlain);
  expect_clean_ckpt_exact(plain, mm::run_grid3d_staged(cfg, ckpt_opts(1, 1)),
                          "grid3d_staged");
}

TEST(CheckpointClean, CarmaExact) {
  const mm::CarmaConfig cfg{{16, 16, 16}, 3};
  const mm::RunReport plain = mm::run_carma(cfg, kPlain);
  expect_clean_ckpt_exact(plain, mm::run_carma(cfg, ckpt_opts(1, 1)),
                          "carma");
}

TEST(CheckpointClean, Alg25dExact) {
  mm::Alg25dConfig cfg;
  cfg.shape = {12, 12, 12};
  cfg.g = 2;
  cfg.c = 2;
  const mm::RunReport plain = mm::run_alg25d(cfg, kPlain);
  expect_clean_ckpt_exact(plain, mm::run_alg25d(cfg, ckpt_opts(1, 1)),
                          "alg25d");
}

TEST(CheckpointClean, SummaAbftExact) {
  const mm::SummaAbftConfig cfg{mm::SummaConfig{{27, 15, 12}, 3}};
  const mm::RunReport plain = mm::run_summa_abft(cfg, kPlain);
  expect_clean_ckpt_exact(plain, mm::run_summa_abft(cfg, ckpt_opts(1, 1)),
                          "summa_abft");
}

TEST(CheckpointClean, Grid3dAbftExact) {
  const mm::Grid3dAbftConfig cfg{
      mm::Grid3dConfig{{12, 10, 8}, core::Grid3{2, 2, 2}}};
  const mm::RunReport plain = mm::run_grid3d_abft(cfg, kPlain);
  expect_clean_ckpt_exact(plain, mm::run_grid3d_abft(cfg, ckpt_opts(1, 1)),
                          "grid3d_abft");
}

/// A clean checkpointed run holds exactly the working set of the plain run:
/// both execute the same body, so they register the same WorkingSets, in
/// the run's element width, for the whole body.
TEST(CheckpointClean, PeakMemoryMatchesPlainRun) {
  const mm::Shape shape{48, 40, 56};
  const core::Grid3 grid{2, 2, 2};
  const mm::Grid3dConfig g3{shape, grid};
  const mm::Grid3dStagedConfig staged{shape, grid, 4};
  const mm::Grid3dAbftConfig abft{g3};
  for (DType dtype : {DType::kF64, DType::kF32, DType::kKahan}) {
    mm::RunOptions plain;
    plain.dtype = dtype;
    mm::RunOptions ck = ckpt_opts(1, 1);
    ck.verify = mm::VerifyMode::kNone;
    ck.dtype = dtype;
    const std::string what = dtype_name(dtype);
    const double g3_peak = mm::run_grid3d(g3, plain).measured_peak_memory_words;
    EXPECT_GT(g3_peak, 0) << what;
    EXPECT_EQ(mm::run_grid3d(g3, ck).measured_peak_memory_words, g3_peak)
        << "grid3d " << what;
    EXPECT_EQ(mm::run_grid3d_staged(staged, ck).measured_peak_memory_words,
              mm::run_grid3d_staged(staged, plain).measured_peak_memory_words)
        << "grid3d_staged " << what;
    EXPECT_EQ(mm::run_grid3d_abft(abft, ck).measured_peak_memory_words,
              mm::run_grid3d_abft(abft, plain).measured_peak_memory_words)
        << "grid3d_abft " << what;
  }
}

}  // namespace
}  // namespace camb
