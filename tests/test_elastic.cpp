// Elastic shrink-and-regrid acceptance battery: the three elastic-capable
// runners (summa / grid3d / alg25d with opts.elastic.enabled) must degrade
// onto the optimal grid for the surviving P′ without ever hanging, answering
// wrong, or silently over-communicating.  The invariants are exact, not
// statistical:
//
//   * a clean elastic run is word-identical to the base algorithm, rank by
//     rank, and bit-identical in C;
//   * an enlistment-crash run (the rank dies among its zero-word probe
//     sends, before any attempt-0 data moved) finishes bit-identical to the
//     fault-free elastic twin, and every machine rank's received words equal
//     the closed-form prediction — shrink control + migration tax + exec at
//     P′ — with zero tolerance, across 8 crash seeds and both schedulers;
//   * the accounting holds in every dtype (the data legs scale by the
//     element width, the shrink flood stays fixed 8-byte control words);
//   * under message SDC with the reliable transport the tax replay stays
//     word-exact on clean elastic runs and crashed runs still heal with
//     zero escapes;
//   * rival recovery disciplines (rollback, memory SDC) are rejected up
//     front rather than composed wrongly, and so is the elastic switch on an
//     algorithm without an elastic re-plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <tuple>
#include <vector>

#include "collectives/coll_cost.hpp"
#include "machine/faults.hpp"
#include "matmul/algorithm_registry.hpp"
#include "matmul/elastic.hpp"
#include "matmul/runner.hpp"

namespace camb::mm {
namespace {

// One case per elastic-capable runner.  integer_inputs is forced on so the
// base runs produce the same bits the elastic runs do (elastic runs force
// it for rounded scalars to keep C grid-independent).
const SummaConfig kSumma = [] {
  SummaConfig cfg{{18, 15, 12}, 3};
  cfg.integer_inputs = true;
  return cfg;
}();
const Grid3dConfig kGrid3d = [] {
  Grid3dConfig cfg{{12, 10, 8}, core::Grid3{2, 2, 2}};
  cfg.integer_inputs = true;
  return cfg;
}();
const Alg25dConfig kAlg25d = [] {
  Alg25dConfig cfg;
  cfg.shape = {12, 12, 12};
  cfg.g = 2;
  cfg.c = 2;
  cfg.integer_inputs = true;
  return cfg;
}();

constexpr i64 kSummaP = 9;
constexpr i64 kGridP = 8;
constexpr i64 kAlgP = 8;

RunOptions elastic_opts(std::uint64_t master_seed) {
  RunOptions opts = RunOptions::verified(VerifyMode::kReference);
  opts.perturb.master_seed = master_seed;
  opts.elastic.enabled = true;
  return opts;
}

/// The same run without the elastic switch: the base algorithm.
RunOptions base_opts(std::uint64_t master_seed) {
  RunOptions opts = elastic_opts(master_seed);
  opts.elastic.enabled = false;
  return opts;
}

/// Arm an enlistment-window crash: positions in [0, P-2] all land inside
/// the first zero-word probe round, so the dying rank never acknowledges
/// round B and recovery starts with zero data words moved — the scenario
/// the closed-form predictor covers.
RunOptions enlistment_crash_opts(std::uint64_t master_seed,
                                 std::vector<int> ranks, i64 nprocs,
                                 int max_failures = 1) {
  RunOptions opts = elastic_opts(master_seed);
  opts.crash.ranks = std::move(ranks);
  opts.crash.max_send_position = nprocs - 2;
  opts.elastic.max_failures = max_failures;
  return opts;
}

/// Fault-free elastic baselines (threads scheduler; the sweep separately
/// pins fibers word-exact, and output bits are scheduler-independent).
const RunReport& clean_summa_elastic() {
  static const RunReport r = run_summa(kSumma, elastic_opts(1));
  return r;
}
const RunReport& clean_grid3d_elastic() {
  static const RunReport r = run_grid3d(kGrid3d, elastic_opts(1));
  return r;
}
const RunReport& clean_alg25d_elastic() {
  static const RunReport r = run_alg25d(kAlg25d, elastic_opts(1));
  return r;
}

/// The zero-tolerance contract of one crashed elastic run: bit-identical C,
/// the agreed failed set covering every fired crash, and every machine
/// rank's received words equal to the closed-form prediction for that
/// failed set (shrink control + width-scaled migration + exec at P′).
void expect_pinned_to_prediction(const RunReport& report,
                                 const RunReport& clean,
                                 const ElasticPrediction& pred,
                                 const std::string& label) {
  ASSERT_TRUE(report.verified) << label;
  ASSERT_FALSE(report.recovery.crashed.empty())
      << label << ": crash never fired — widen max_send_position";
  EXPECT_EQ(report.output_hash, clean.output_hash)
      << label << ": " << report.elastic.summary();
  EXPECT_EQ(report.max_abs_error, clean.max_abs_error) << label;
  EXPECT_TRUE(report.elastic.enabled) << label;
  EXPECT_GE(report.elastic.rounds, 1) << label;
  for (int dead : report.recovery.crashed) {
    EXPECT_TRUE(std::find(report.elastic.failed.begin(),
                          report.elastic.failed.end(),
                          dead) != report.elastic.failed.end())
        << label << ": crashed rank " << dead << " missing from agreed set; "
        << report.elastic.summary();
  }
  EXPECT_EQ(report.elastic.survivors, pred.survivors) << label;
  EXPECT_EQ(report.elastic.active_ranks, pred.active_ranks) << label;
  EXPECT_EQ(report.elastic.grid, pred.grid) << label;

  // The per-rank words, with zero tolerance: survivors pay exactly shrink +
  // migration + exec-at-P′; the failed received nothing but zero-word
  // probes.
  ASSERT_EQ(report.rank_recv_words.size(), pred.rank_recv_words.size())
      << label;
  for (std::size_t r = 0; r < pred.rank_recv_words.size(); ++r) {
    EXPECT_EQ(report.rank_recv_words[r], pred.rank_recv_words[r])
        << label << " rank " << r << ": " << report.elastic.summary();
  }
  EXPECT_EQ(report.measured_critical_recv, report.predicted_words()) << label;

  // The component ledger: the measured shrink flood and migration tax match
  // their closed forms, and the flood is fixed control words independent of
  // the data dtype.
  EXPECT_EQ(report.elastic.shrink_recv_words, pred.shrink_words) << label;
  double max_migration = 0;
  for (double w : pred.rank_migration_words) {
    max_migration = std::max(max_migration, w);
  }
  EXPECT_EQ(report.elastic.migration_recv_words, max_migration) << label;
}

// ---------------------------------------------------------------------------
// Clean elastic runs: word-identical to the base algorithm, rank by rank.
// ---------------------------------------------------------------------------

void expect_clean_matches_base(const RunReport& base, const RunReport& elastic,
                               const ElasticPrediction& pred,
                               const char* what) {
  ASSERT_TRUE(elastic.verified) << what;
  EXPECT_TRUE(elastic.elastic.enabled) << what;
  EXPECT_EQ(elastic.elastic.rounds, 0) << what;
  EXPECT_TRUE(elastic.elastic.failed.empty()) << what;
  // Word-identical: the enlistment and confirm rounds are zero-word probes,
  // so every rank's word counters equal the base run's exactly (messages
  // differ — the probes are messages).
  EXPECT_EQ(elastic.rank_recv_words, base.rank_recv_words) << what;
  EXPECT_EQ(elastic.rank_sent_words, base.rank_sent_words) << what;
  EXPECT_EQ(elastic.output_hash, base.output_hash) << what;
  EXPECT_EQ(elastic.max_abs_error, base.max_abs_error) << what;
  // The empty-failed prediction degenerates to the base closed form: no
  // shrink control words, no migration, base exec words per rank.
  EXPECT_EQ(elastic.predicted_control_words, 0) << what;
  EXPECT_EQ(elastic.measured_critical_recv, elastic.predicted_words()) << what;
  ASSERT_EQ(elastic.rank_recv_words.size(), pred.rank_recv_words.size())
      << what;
  for (std::size_t r = 0; r < pred.rank_recv_words.size(); ++r) {
    EXPECT_EQ(elastic.rank_recv_words[r], pred.rank_recv_words[r])
        << what << " rank " << r;
  }
  EXPECT_EQ(elastic.elastic.migration_recv_words, 0) << what;
  EXPECT_EQ(elastic.elastic.shrink_recv_words, 0) << what;
}

TEST(ElasticClean, SummaIsWordIdenticalToBase) {
  const RunReport base = run_summa(kSumma, base_opts(1));
  const ElasticConfig ecfg{true, 1};
  expect_clean_matches_base(
      base, clean_summa_elastic(),
      elastic_prediction(kSumma, ecfg, {}, kSummaP, 1.0), "summa");
}

TEST(ElasticClean, Grid3dIsWordIdenticalToBase) {
  const RunReport base = run_grid3d(kGrid3d, base_opts(1));
  const ElasticConfig ecfg{true, 1};
  expect_clean_matches_base(
      base, clean_grid3d_elastic(),
      elastic_prediction(kGrid3d, ecfg, {}, kGridP, 1.0), "grid3d");
}

TEST(ElasticClean, Alg25dIsWordIdenticalToBase) {
  const RunReport base = run_alg25d(kAlg25d, base_opts(1));
  const ElasticConfig ecfg{true, 1};
  expect_clean_matches_base(
      base, clean_alg25d_elastic(),
      elastic_prediction(kAlg25d, ecfg, {}, kAlgP, 1.0), "alg25d");
}

// ---------------------------------------------------------------------------
// The 16-run acceptance sweep: 8 crash seeds x both schedulers, each run
// pinned per-rank to the closed-form prediction and bit-identical in C.
// ---------------------------------------------------------------------------

class ElasticCrashSweep
    : public ::testing::TestWithParam<std::tuple<int, SchedulerKind>> {};

TEST_P(ElasticCrashSweep, ShrinksWordExactlyAndBitIdentically) {
  const auto [seed_idx, kind] = GetParam();
  const std::uint64_t master_seed =
      0xE1A5 + static_cast<std::uint64_t>(seed_idx);
  const ElasticConfig ecfg{true, 1};

  {
    const int dead = seed_idx % static_cast<int>(kSummaP);
    RunOptions opts = enlistment_crash_opts(master_seed, {dead}, kSummaP);
    opts.scheduler.kind = kind;
    const RunReport report = run_summa(kSumma, opts);
    expect_pinned_to_prediction(
        report, clean_summa_elastic(),
        elastic_prediction(kSumma, ecfg, report.elastic.failed,
                                 static_cast<int>(kSummaP), 1.0),
        "summa seed=" + std::to_string(seed_idx) + " dead=" +
            std::to_string(dead));
  }
  {
    const int dead = seed_idx % static_cast<int>(kGridP);
    RunOptions opts = enlistment_crash_opts(master_seed, {dead}, kGridP);
    opts.scheduler.kind = kind;
    const RunReport report = run_grid3d(kGrid3d, opts);
    expect_pinned_to_prediction(
        report, clean_grid3d_elastic(),
        elastic_prediction(kGrid3d, ecfg, report.elastic.failed,
                                  static_cast<int>(kGridP), 1.0),
        "grid3d seed=" + std::to_string(seed_idx) + " dead=" +
            std::to_string(dead));
  }
  {
    const int dead = seed_idx % static_cast<int>(kAlgP);
    RunOptions opts = enlistment_crash_opts(master_seed, {dead}, kAlgP);
    opts.scheduler.kind = kind;
    const RunReport report = run_alg25d(kAlg25d, opts);
    expect_pinned_to_prediction(
        report, clean_alg25d_elastic(),
        elastic_prediction(kAlg25d, ecfg, report.elastic.failed,
                                  static_cast<int>(kAlgP), 1.0),
        "alg25d seed=" + std::to_string(seed_idx) + " dead=" +
            std::to_string(dead));
  }
}

INSTANTIATE_TEST_SUITE_P(
    CrashSeeds, ElasticCrashSweep,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(SchedulerKind::kThreads,
                                         SchedulerKind::kFibers)));

// Two enlistment deaths under a max_failures = 2 budget: one shrink round
// agrees on both, and the prediction (flood provisioned for f = 2, P′ two
// smaller) still pins every rank exactly.
TEST(ElasticCrash, TwoFailuresAgreeInOneRound) {
  const ElasticConfig ecfg{true, 2};
  RunOptions opts =
      enlistment_crash_opts(0x2FA1, {2, 5}, kSummaP, /*max_failures=*/2);
  const RunReport report = run_summa(kSumma, opts);
  ASSERT_EQ(report.recovery.crashed.size(), 2u)
      << "both crashes must fire in the enlistment window";
  expect_pinned_to_prediction(
      report, clean_summa_elastic(),
      elastic_prediction(kSumma, ecfg, report.elastic.failed,
                               static_cast<int>(kSummaP), 1.0),
      "summa two-failure");
  EXPECT_EQ(report.elastic.survivors, kSummaP - 2);
}

// The shrink flood is provisioned for the crash budget: a larger
// max_failures costs more control words even for the same single death.
TEST(ElasticCrash, ShrinkFloodScalesWithFailureBudget) {
  const i64 f1 = elastic_shrink_recv_words_exact(
      static_cast<int>(kSummaP), /*max_failures=*/1, /*pre_failures=*/1);
  const i64 f2 = elastic_shrink_recv_words_exact(
      static_cast<int>(kSummaP), /*max_failures=*/2, /*pre_failures=*/1);
  EXPECT_GT(f2, f1);

  RunOptions opts =
      enlistment_crash_opts(0x2FA2, {4}, kSummaP, /*max_failures=*/2);
  const RunReport report = run_summa(kSumma, opts);
  ASSERT_FALSE(report.recovery.crashed.empty());
  EXPECT_EQ(report.elastic.shrink_recv_words, static_cast<double>(f2));
}

// ---------------------------------------------------------------------------
// Dtype legs: the migration and exec words scale by the element width, the
// shrink flood stays fixed 8-byte control traffic, and C stays bit-exact.
// ---------------------------------------------------------------------------

TEST(ElasticDtype, CrashPinnedWordExactAcrossDtypes) {
  const ElasticConfig ecfg{true, 1};
  for (DType dt :
       {DType::kF64, DType::kF32, DType::kI64, DType::kKahan}) {
    const std::string label = std::string("summa elastic ") + dtype_name(dt);
    RunOptions clean_opts = elastic_opts(3);
    clean_opts.dtype = dt;
    const RunReport clean = run_summa(kSumma, clean_opts);
    ASSERT_TRUE(clean.verified) << label;

    RunOptions opts = enlistment_crash_opts(0xD7E + 0, {4}, kSummaP);
    opts.dtype = dt;
    const RunReport report = run_summa(kSumma, opts);
    expect_pinned_to_prediction(
        report, clean,
        elastic_prediction(kSumma, ecfg, report.elastic.failed,
                                 static_cast<int>(kSummaP),
                                 dtype_width_words(dt)),
        label);
    // The flood never scales with the dtype.
    EXPECT_EQ(report.elastic.shrink_recv_words,
              static_cast<double>(elastic_shrink_recv_words_exact(
                  static_cast<int>(kSummaP), 1,
                  static_cast<int>(report.elastic.failed.size()))))
        << label;
  }
}

// ---------------------------------------------------------------------------
// Scheduler equivalence: the fiber twin of a crashed elastic run reproduces
// every counter and every output bit, not merely "also recovers".
// ---------------------------------------------------------------------------

TEST(ElasticSchedulerEquivalence, FiberTwinIsWordExactUnderCrash) {
  RunOptions opts = enlistment_crash_opts(0xF1B, {3}, kGridP);
  opts.scheduler.kind = SchedulerKind::kThreads;
  const RunReport threads = run_grid3d(kGrid3d, opts);
  opts.scheduler.kind = SchedulerKind::kFibers;
  const RunReport fibers = run_grid3d(kGrid3d, opts);
  ASSERT_FALSE(threads.recovery.crashed.empty());
  EXPECT_EQ(fibers.recovery.crashed, threads.recovery.crashed);
  EXPECT_EQ(fibers.elastic.failed, threads.elastic.failed);
  EXPECT_EQ(fibers.elastic.rounds, threads.elastic.rounds);
  EXPECT_EQ(fibers.elastic.grid, threads.elastic.grid);
  EXPECT_EQ(fibers.rank_recv_words, threads.rank_recv_words);
  EXPECT_EQ(fibers.rank_sent_words, threads.rank_sent_words);
  EXPECT_EQ(fibers.rank_messages, threads.rank_messages);
  EXPECT_EQ(fibers.output_hash, threads.output_hash);
  EXPECT_EQ(fibers.simulated_time, threads.simulated_time);
}

// ---------------------------------------------------------------------------
// Elastic x message SDC x reliable transport.
// ---------------------------------------------------------------------------

// On a clean elastic run the whole SDC bill lands in the transport phase
// and replays word-exactly from the counted-send log — per rank, on top of
// the unperturbed elastic totals.
TEST(ElasticSdc, CleanRunRepaysTransportTaxExactly) {
  constexpr double kRate = 0.08;
  RunOptions opts = elastic_opts(7);
  opts.sdc.message_rate = kRate;
  opts.sdc.reliable = true;
  opts.sdc.sdc_seed_override = 0x5E1A;
  opts.collect_trace = true;
  const RunReport faulted = run_summa(kSumma, opts);
  const RunReport clean = run_summa(kSumma, elastic_opts(7));
  const std::string label =
      "summa elastic sdc " + faulted.corruption.summary();

  EXPECT_EQ(faulted.output_hash, clean.output_hash) << label;
  EXPECT_EQ(faulted.elastic.rounds, 0) << label;
  EXPECT_EQ(faulted.corruption.escaped, 0) << label;
  EXPECT_GT(faulted.corruption.injected_drops +
                faulted.corruption.injected_flips +
                faulted.corruption.injected_dups,
            0)
      << label << ": no events injected — raise the rate";
  EXPECT_EQ(faulted.corruption.caught_at_transport,
            faulted.corruption.injected_flips)
      << label;

  FaultProfile profile;
  profile.drop_prob = kRate;
  profile.flip_prob = kRate;
  profile.dup_prob = kRate;
  ASSERT_FALSE(faulted.trace_events.empty()) << label;
  const std::vector<PhaseCounters> tax = coll::predicted_transport_phase(
      profile, opts.perturb.fault_seed(), opts.sdc.sdc_seed_override,
      static_cast<int>(kSummaP), faulted.trace_events);
  for (int r = 0; r < static_cast<int>(kSummaP); ++r) {
    const auto s = static_cast<std::size_t>(r);
    EXPECT_EQ(faulted.rank_recv_words[s],
              clean.rank_recv_words[s] + tax[s].words_received())
        << label << " rank " << r;
    EXPECT_EQ(faulted.rank_sent_words[s],
              clean.rank_sent_words[s] + tax[s].words_sent())
        << label << " rank " << r;
  }
}

// A crash inside the enlistment window while the transport is healing
// drops/flips/dups: the survivors still shrink, regrid, and deliver the
// bit-identical C with zero escapes, under both schedulers.
class ElasticSdcCrash : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(ElasticSdcCrash, ShrinksBitIdenticallyWhileHealingTransport) {
  RunOptions opts = enlistment_crash_opts(0xC4A5, {4}, kSummaP);
  opts.sdc.message_rate = 0.06;
  opts.sdc.reliable = true;
  opts.sdc.sdc_seed_override = 0x5E1B;
  opts.scheduler.kind = GetParam();
  const RunReport report = run_summa(kSumma, opts);
  const std::string label =
      "summa elastic crash+sdc " + report.corruption.summary();

  ASSERT_TRUE(report.verified) << label;
  ASSERT_FALSE(report.recovery.crashed.empty())
      << label << ": crash never fired — widen max_send_position";
  EXPECT_GE(report.elastic.rounds, 1) << label;
  EXPECT_EQ(report.output_hash, clean_summa_elastic().output_hash) << label;
  EXPECT_EQ(report.max_abs_error, clean_summa_elastic().max_abs_error)
      << label;
  EXPECT_EQ(report.corruption.escaped, 0) << label;
  EXPECT_GT(report.corruption.injected_drops +
                report.corruption.injected_flips +
                report.corruption.injected_dups,
            0)
      << label;
  // Copies addressed to the dead rank become crash debris, so in-flight
  // catches may undercount injections — never overcount.
  EXPECT_LE(report.corruption.caught_at_transport,
            report.corruption.injected_flips)
      << label;
}

INSTANTIATE_TEST_SUITE_P(Schedulers, ElasticSdcCrash,
                         ::testing::Values(SchedulerKind::kThreads,
                                           SchedulerKind::kFibers));

// ---------------------------------------------------------------------------
// Rival recovery disciplines are rejected up front.
// ---------------------------------------------------------------------------

TEST(ElasticRejections, RollbackAndMemorySdcDoNotCompose) {
  {
    RunOptions opts = elastic_opts(1);
    opts.checkpoint.interval = 2;
    opts.checkpoint.spares = 1;
    EXPECT_THROW(run_summa(kSumma, opts), Error);
  }
  {
    RunOptions opts = elastic_opts(1);
    opts.sdc.mem_rate = 0.5;
    EXPECT_THROW(run_grid3d(kGrid3d, opts), Error);
  }
}

// ---------------------------------------------------------------------------
// The elastic switch is read once, by the runner's composition check.
// ---------------------------------------------------------------------------

// Every registry entry with an elastic re-plan runs elastic under the
// switch; every other entry rejects it with a named error instead of
// quietly running plain.
TEST(ElasticSwitch, EveryRegistryEntryRunsElasticOrRejects) {
  const Shape shape{16, 16, 16};
  const std::vector<std::string> capable = {
      "grid3d_optimal", "summa",          "alg25d",
      "summa_elastic",  "grid3d_elastic", "alg25d_elastic"};
  int elastic_runs = 0;
  for (const AlgorithmInfo& algo : algorithm_registry()) {
    i64 p = 0;
    for (i64 candidate : {8, 9, 16}) {
      if (algo.supports(shape, candidate)) {
        p = candidate;
        break;
      }
    }
    ASSERT_GT(p, 0) << algo.name << " supports none of P in {8, 9, 16}";
    const RunOptions opts = elastic_opts(5);
    if (std::find(capable.begin(), capable.end(), algo.name) !=
        capable.end()) {
      const RunReport report = algo.run_opts(shape, p, opts);
      EXPECT_TRUE(report.elastic.enabled) << algo.name;
      EXPECT_TRUE(report.verified) << algo.name;
      EXPECT_EQ(report.measured_critical_recv, report.predicted_words())
          << algo.name;
      ++elastic_runs;
    } else {
      EXPECT_THROW(algo.run_opts(shape, p, opts), Error) << algo.name;
    }
  }
  EXPECT_EQ(elastic_runs, static_cast<int>(capable.size()));
}

// Under the switch the plain SUMMA runner shrinks past a crash instead of
// failing with PeerFailedError.
TEST(ElasticSwitch, BaseRunnerShrinksPastACrash) {
  const RunReport report =
      run_summa(kSumma, enlistment_crash_opts(0x5A, {3}, kSummaP));
  ASSERT_FALSE(report.recovery.crashed.empty());
  EXPECT_TRUE(report.verified);
  EXPECT_GE(report.elastic.rounds, 1);
  EXPECT_EQ(report.output_hash, clean_summa_elastic().output_hash);
}

// The failure budget is validated with the other composition rules, before
// any machine is built.
TEST(ElasticSwitch, FailureBudgetOutOfRangeIsRejected) {
  for (int budget : {-1, 31}) {
    RunOptions opts = elastic_opts(1);
    opts.elastic.max_failures = budget;
    EXPECT_THROW(run_grid3d(kGrid3d, opts), Error) << budget;
  }
}

}  // namespace
}  // namespace camb::mm
