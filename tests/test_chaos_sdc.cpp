// Chaos sweep: silent-data-corruption injection (message drops, payload
// bit-flips, duplicates) under the reliable transport, across every
// registered algorithm, both schedulers, and in composition with crashes,
// checkpoints, and timing faults.  The invariants are exact, not
// statistical:
//
//   * results stay bit-identical to the fault-free run (the transport heals
//     every injected event; nothing silently wrong ever escapes),
//   * algorithm-phase counters are untouched; the whole transport tax lands
//     in the "transport" phase and equals the closed-form replay predictor
//     coll::predicted_transport_phase rank for rank, word for word,
//   * the CorruptionReport balances: every corrupt copy caught and nacked,
//     every duplicate discarded or parked as benign debris, zero escapes,
//   * memory SDC (post-run tile bit-flips) is repaired exactly by the ABFT
//     checksum intersection when within the single-error code, and honestly
//     surfaces as a nonzero residual when beyond it.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "collectives/coll_cost.hpp"
#include "machine/faults.hpp"
#include "matmul/algorithm_registry.hpp"
#include "matmul/runner.hpp"

namespace camb::mm {
namespace {

using camb::core::Shape;

struct SweepCase {
  Shape shape;
  i64 nprocs;
};

// Machine sizes covering every algorithm's applicability predicate (powers
// of two for CARMA, squares for SUMMA/Cannon/ABFT, g*g*c for 2.5D,
// arbitrary for the grid3d family).
const SweepCase kCases[] = {
    {{12, 8, 6}, 4},
    {{16, 16, 16}, 8},
    {{24, 6, 10}, 9},
};

// Per-copy drop = flip = dup probability for the sweep.  High enough that
// every run injects events, low enough that the probability of any send
// exhausting its 12-copy retransmit budget is negligible (~0.1^12).
constexpr double kRate = 0.08;

std::string case_label(const SweepCase& c, const std::string& algorithm) {
  return algorithm + " shape=(" + std::to_string(c.shape.n1) + "," +
         std::to_string(c.shape.n2) + "," + std::to_string(c.shape.n3) +
         ") P=" + std::to_string(c.nprocs);
}

/// The profile configure_machine builds for a pure --sdc-rate run: SDC
/// probabilities merged into an otherwise empty profile.
FaultProfile sdc_only_profile(double rate) {
  FaultProfile profile;
  profile.drop_prob = rate;
  profile.flip_prob = rate;
  profile.dup_prob = rate;
  return profile;
}

const RunReport& clean_baseline(std::size_t case_idx,
                                const AlgorithmInfo& algorithm) {
  static std::map<std::pair<std::size_t, std::string>, RunReport> cache;
  const auto key = std::make_pair(case_idx, algorithm.name);
  auto it = cache.find(key);
  if (it == cache.end()) {
    const SweepCase& c = kCases[case_idx];
    it = cache
             .emplace(key, algorithm.run_opts(
                               c.shape, c.nprocs,
                               RunOptions::verified(VerifyMode::kReference)))
             .first;
  }
  return it->second;
}

/// The exactness contract of one healed run against its clean twin: bit-
/// identical output, balanced corruption ledger, and per-rank totals pinned
/// to clean + the closed-form transport tax.
void expect_healed_exactly(const RunReport& faulted, const RunReport& clean,
                           const FaultProfile& profile,
                           std::uint64_t fault_seed, std::uint64_t sdc_seed,
                           int nprocs, const std::string& label) {
  EXPECT_EQ(faulted.output_hash, clean.output_hash) << label;
  EXPECT_EQ(faulted.max_abs_error, clean.max_abs_error) << label;
  EXPECT_TRUE(faulted.verified) << label;

  const CorruptionReport& cr = faulted.corruption;
  EXPECT_TRUE(cr.enabled) << label;
  EXPECT_EQ(cr.sdc_seed, sdc_seed) << label;
  EXPECT_EQ(cr.escaped, 0) << label;
  // Every corrupt copy was caught by the receiver's checksum and nacked;
  // every duplicate was discarded in-flight or parked as benign debris.
  EXPECT_EQ(cr.caught_at_transport, cr.injected_flips) << label;
  EXPECT_EQ(cr.nacks, cr.injected_flips) << label;
  EXPECT_EQ(cr.dup_discards + cr.transport_debris, cr.injected_dups) << label;
  EXPECT_EQ(cr.retransmits, cr.injected_drops + cr.injected_flips) << label;

  // Word-exact tax: replaying the seeded plan against the counted-send log
  // predicts the measured per-rank totals exactly.
  ASSERT_FALSE(faulted.trace_events.empty()) << label;
  const std::vector<PhaseCounters> tax = coll::predicted_transport_phase(
      profile, fault_seed, sdc_seed, nprocs, faulted.trace_events);
  i64 predicted_retransmit_words = 0;
  for (int r = 0; r < nprocs; ++r) {
    EXPECT_EQ(faulted.rank_recv_words[static_cast<std::size_t>(r)],
              clean.rank_recv_words[static_cast<std::size_t>(r)] +
                  tax[static_cast<std::size_t>(r)].words_received())
        << label << " rank " << r;
    EXPECT_EQ(faulted.rank_sent_words[static_cast<std::size_t>(r)],
              clean.rank_sent_words[static_cast<std::size_t>(r)] +
                  tax[static_cast<std::size_t>(r)].words_sent())
        << label << " rank " << r;
    EXPECT_EQ(faulted.rank_messages[static_cast<std::size_t>(r)],
              clean.rank_messages[static_cast<std::size_t>(r)] +
                  tax[static_cast<std::size_t>(r)].messages_sent)
        << label << " rank " << r;
    predicted_retransmit_words +=
        tax[static_cast<std::size_t>(r)].words_sent();
  }
  // The sender-side word tax splits into retransmitted words (dropped +
  // corrupt copies, reported) and duplicate words (one clean-sized copy per
  // injected dup): with no dups the measured retransmit words must equal
  // the predictor's total exactly, otherwise they are a strict part of it.
  if (cr.injected_dups == 0) {
    EXPECT_EQ(predicted_retransmit_words, cr.retransmitted_words) << label;
  } else {
    EXPECT_GE(predicted_retransmit_words, cr.retransmitted_words) << label;
  }

  // Retransmits and backoff only ever cost time.
  EXPECT_GE(faulted.simulated_time, clean.simulated_time) << label;
}

// ---------------------------------------------------------------------------
// The 16-run acceptance sweep: 8 SDC seeds x both schedulers, over every
// registered algorithm at every applicable case.
// ---------------------------------------------------------------------------

class ChaosSdcSweep
    : public ::testing::TestWithParam<std::tuple<int, SchedulerKind>> {};

TEST_P(ChaosSdcSweep, HealsEveryAlgorithmBitIdentically) {
  const auto [seed_idx, kind] = GetParam();
  const std::uint64_t sdc_seed = 0x5DC0 + static_cast<std::uint64_t>(seed_idx);

  RunOptions opts = RunOptions::verified(VerifyMode::kReference);
  opts.sdc.message_rate = kRate;
  opts.sdc.reliable = true;
  opts.sdc.sdc_seed_override = sdc_seed;
  opts.collect_trace = true;
  opts.scheduler.kind = kind;

  const FaultProfile profile = sdc_only_profile(kRate);
  i64 total_injected = 0;
  for (std::size_t ci = 0; ci < std::size(kCases); ++ci) {
    const SweepCase& c = kCases[ci];
    for (const auto& algorithm : algorithm_registry()) {
      if (!algorithm.supports(c.shape, c.nprocs)) continue;
      const RunReport& clean = clean_baseline(ci, algorithm);
      const RunReport faulted = algorithm.run_opts(c.shape, c.nprocs, opts);
      const std::string label =
          case_label(c, algorithm.name) + " " + faulted.corruption.summary();
      expect_healed_exactly(faulted, clean, profile,
                            opts.perturb.fault_seed(), sdc_seed,
                            static_cast<int>(c.nprocs), label);
      total_injected += faulted.corruption.injected_drops +
                        faulted.corruption.injected_flips +
                        faulted.corruption.injected_dups;
    }
  }
  // The sweep must actually exercise the transport, not vacuously pass.
  EXPECT_GT(total_injected, 0);
}

INSTANTIATE_TEST_SUITE_P(
    SdcSeeds, ChaosSdcSweep,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(SchedulerKind::kThreads,
                                         SchedulerKind::kFibers)));

TEST(ChaosSchedulerEquivalence, FiberTwinIsWordExactUnderSdc) {
  // Same seeds, different scheduler: the healed runs must agree on every
  // counter and every output bit, not merely both verify.
  RunOptions opts = RunOptions::verified(VerifyMode::kReference);
  opts.sdc.message_rate = kRate;
  opts.sdc.reliable = true;
  opts.sdc.sdc_seed_override = 0xF1BE;
  for (const char* name : {"summa", "grid3d_optimal", "alg25d"}) {
    const auto& algorithm = algorithm_by_name(name);
    const Shape shape{16, 16, 16};
    if (!algorithm.supports(shape, 8)) continue;
    opts.scheduler.kind = SchedulerKind::kThreads;
    const RunReport threads = algorithm.run_opts(shape, 8, opts);
    opts.scheduler.kind = SchedulerKind::kFibers;
    const RunReport fibers = algorithm.run_opts(shape, 8, opts);
    EXPECT_EQ(fibers.output_hash, threads.output_hash) << name;
    EXPECT_EQ(fibers.rank_recv_words, threads.rank_recv_words) << name;
    EXPECT_EQ(fibers.rank_sent_words, threads.rank_sent_words) << name;
    EXPECT_EQ(fibers.rank_messages, threads.rank_messages) << name;
    EXPECT_EQ(fibers.simulated_time, threads.simulated_time) << name;
    EXPECT_EQ(fibers.corruption.injected_drops,
              threads.corruption.injected_drops)
        << name;
    EXPECT_EQ(fibers.corruption.retransmitted_words,
              threads.corruption.retransmitted_words)
        << name;
  }
}

// ---------------------------------------------------------------------------
// Composition: SDC x crashes (ABFT reconstruction), SDC x checkpoint
// rollback, SDC x timing faults — each under both schedulers.
// ---------------------------------------------------------------------------

class ChaosComposition : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(ChaosComposition, SdcPlusCrashAbftReconstruction) {
  const Shape shape{18, 18, 18};
  const auto& algorithm = algorithm_by_name("summa_abft");
  const RunReport clean = algorithm.run_opts(
      shape, 9, RunOptions::verified(VerifyMode::kReference));

  RunOptions opts = RunOptions::verified(VerifyMode::kReference);
  opts.sdc.message_rate = 0.06;
  opts.sdc.reliable = true;
  opts.sdc.sdc_seed_override = 0xAB1;
  opts.crash.ranks = {4};
  opts.crash.max_send_position = 6;
  opts.scheduler.kind = GetParam();
  const RunReport faulted = algorithm.run_opts(shape, 9, opts);
  const std::string label = "summa_abft crash+sdc " +
                            faulted.corruption.summary();

  ASSERT_FALSE(faulted.recovery.crashed.empty())
      << label << ": crash never fired — widen max_send_position";
  // The dead rank's tile is reconstructed from checksums AND every injected
  // transport event healed: the output is still bit-identical.
  EXPECT_EQ(faulted.output_hash, clean.output_hash) << label;
  EXPECT_EQ(faulted.max_abs_error, clean.max_abs_error) << label;
  EXPECT_TRUE(faulted.verified) << label;
  EXPECT_EQ(faulted.corruption.escaped, 0) << label;
  EXPECT_GT(faulted.corruption.injected_drops +
                faulted.corruption.injected_flips +
                faulted.corruption.injected_dups,
            0)
      << label;
  // Copies addressed to (or parked in) the dead rank's mailbox become crash
  // debris, so in-flight catches may undercount injections — never overcount.
  EXPECT_LE(faulted.corruption.caught_at_transport,
            faulted.corruption.injected_flips)
      << label;
}

TEST_P(ChaosComposition, SdcPlusCheckpointRollback) {
  const Shape shape{18, 18, 18};
  const auto& algorithm = algorithm_by_name("summa");
  const RunReport clean = algorithm.run_opts(
      shape, 9, RunOptions::verified(VerifyMode::kReference));

  RunOptions opts = RunOptions::verified(VerifyMode::kReference);
  opts.sdc.message_rate = 0.06;
  opts.sdc.reliable = true;
  opts.sdc.sdc_seed_override = 0xAB2;
  opts.crash.ranks = {3};
  opts.crash.max_send_position = 6;
  opts.checkpoint.interval = 2;
  opts.checkpoint.spares = 1;
  opts.scheduler.kind = GetParam();
  const RunReport report = algorithm.run_opts(shape, 9, opts);
  const std::string label = "summa ckpt+sdc " + report.corruption.summary();

  ASSERT_FALSE(report.recovery.crashed.empty())
      << label << ": crash never fired — widen max_send_position";
  EXPECT_GE(report.resilience.rounds, 2) << label;
  EXPECT_EQ(report.output_hash, clean.output_hash) << label;
  EXPECT_EQ(report.max_abs_error, clean.max_abs_error) << label;
  EXPECT_TRUE(report.verified) << label;
  EXPECT_EQ(report.corruption.escaped, 0) << label;
  EXPECT_GT(report.corruption.injected_drops +
                report.corruption.injected_flips +
                report.corruption.injected_dups,
            0)
      << label;
}

TEST_P(ChaosComposition, SdcPlusTimingFaultProfile) {
  // SDC rates merge into a heavy timing-fault profile: delays, retries, and
  // stragglers jitter the schedule while the transport heals corruption.
  // The closed-form tax still pins the totals exactly — fault decisions are
  // program-order facts, not timing facts.
  RunOptions opts = RunOptions::verified(VerifyMode::kReference);
  opts.perturb.profile = "heavy";
  opts.perturb.master_seed = 0xC0FFEE;
  opts.sdc.message_rate = kRate;
  opts.sdc.reliable = true;
  opts.sdc.sdc_seed_override = 0xAB3;
  opts.collect_trace = true;
  opts.scheduler.kind = GetParam();

  FaultProfile profile = fault_profile_from_spec("heavy");
  profile.drop_prob = std::max(profile.drop_prob, kRate);
  profile.flip_prob = std::max(profile.flip_prob, kRate);
  profile.dup_prob = std::max(profile.dup_prob, kRate);

  for (const char* name : {"summa", "grid3d_optimal"}) {
    const auto& algorithm = algorithm_by_name(name);
    const Shape shape{16, 16, 16};
    const i64 nprocs = (std::string(name) == "summa") ? 4 : 8;
    if (!algorithm.supports(shape, nprocs)) continue;
    const RunReport clean = algorithm.run_opts(
        shape, nprocs, RunOptions::verified(VerifyMode::kReference));
    const RunReport faulted = algorithm.run_opts(shape, nprocs, opts);
    expect_healed_exactly(faulted, clean, profile, opts.perturb.fault_seed(),
                          opts.sdc.sdc_seed_override,
                          static_cast<int>(nprocs),
                          std::string(name) + " heavy+sdc " +
                              faulted.corruption.summary());
    EXPECT_TRUE(faulted.faults.enabled);
  }
}

INSTANTIATE_TEST_SUITE_P(Schedulers, ChaosComposition,
                         ::testing::Values(SchedulerKind::kThreads,
                                           SchedulerKind::kFibers));

// ---------------------------------------------------------------------------
// Memory SDC: post-run tile bit-flips repaired by the ABFT checksum
// intersection (or honestly surfaced when beyond the single-error code).
// ---------------------------------------------------------------------------

TEST(MemorySdc, SummaSingleErrorCorrectedExactly) {
  const Shape shape{18, 18, 18};
  const auto& algorithm = algorithm_by_name("summa_abft");
  const RunReport clean = algorithm.run_opts(
      shape, 9, RunOptions::verified(VerifyMode::kReference));

  int single_corrected = 0;
  int multi_runs = 0;
  for (int seed = 1; seed <= 24; ++seed) {
    RunOptions opts = RunOptions::verified(VerifyMode::kReference);
    opts.sdc.mem_rate = 0.12;
    opts.sdc.sdc_seed_override = static_cast<std::uint64_t>(seed);
    const RunReport report = algorithm.run_opts(shape, 9, opts);
    const std::string label =
        "summa_abft mem seed=" + std::to_string(seed) + " " +
        report.corruption.summary();
    if (report.corruption.injected_mem_flips == 0) {
      EXPECT_EQ(report.corruption.detected_by_checksums, 0) << label;
      EXPECT_EQ(report.output_hash, clean.output_hash) << label;
      continue;
    }
    // Every injected flip is detected by the syndromes.
    EXPECT_EQ(report.corruption.detected_by_checksums,
              report.corruption.injected_mem_flips)
        << label;
    if (report.corruption.injected_mem_flips == 1) {
      // Within the single-error code: localized, repaired, bit-identical.
      EXPECT_EQ(report.corruption.corrected_by_abft, 1) << label;
      EXPECT_EQ(report.corruption.escaped, 0) << label;
      EXPECT_EQ(report.output_hash, clean.output_hash) << label;
      EXPECT_EQ(report.max_abs_error, clean.max_abs_error) << label;
      ++single_corrected;
    } else {
      // Beyond it: the pass must degrade honestly — escapes are reported
      // and the residual is nonzero, never a silently wrong "verified".
      EXPECT_GT(report.corruption.escaped, 0) << label;
      EXPECT_GT(report.max_abs_error, 0) << label;
      ++multi_runs;
    }
  }
  EXPECT_GT(single_corrected, 0) << "no seed produced exactly one flip";
  (void)multi_runs;  // informational; rate 0.12 over 9 ranks keeps it rare
}

TEST(MemorySdc, Grid3dRepairsOneErrorPerFiber) {
  const Shape shape{16, 16, 16};
  const auto& algorithm = algorithm_by_name("grid3d_abft");
  const RunReport clean = algorithm.run_opts(
      shape, 8, RunOptions::verified(VerifyMode::kReference));

  int corrected_runs = 0;
  for (int seed = 1; seed <= 24; ++seed) {
    RunOptions opts = RunOptions::verified(VerifyMode::kReference);
    opts.sdc.mem_rate = 0.3;
    opts.sdc.sdc_seed_override = static_cast<std::uint64_t>(seed);
    const RunReport report = algorithm.run_opts(shape, 8, opts);
    const std::string label = "grid3d_abft mem seed=" + std::to_string(seed) +
                              " " + report.corruption.summary();
    EXPECT_EQ(report.corruption.detected_by_checksums,
              report.corruption.injected_mem_flips)
        << label;
    if (report.corruption.escaped == 0) {
      // Parity + dot-product disambiguation repaired every flip (one per
      // C fiber is correctable independently): bit-identical output.
      EXPECT_EQ(report.corruption.corrected_by_abft,
                report.corruption.injected_mem_flips)
          << label;
      EXPECT_EQ(report.output_hash, clean.output_hash) << label;
      EXPECT_EQ(report.max_abs_error, clean.max_abs_error) << label;
      if (report.corruption.corrected_by_abft > 0) ++corrected_runs;
    } else {
      EXPECT_GT(report.max_abs_error, 0) << label;
    }
  }
  EXPECT_GT(corrected_runs, 0);
}

TEST(MemorySdc, ContradictoryConfigurationsAreRejected) {
  const Shape shape{12, 8, 6};
  // Memory SDC without a correction path: no ABFT checksums, no repair.
  {
    RunOptions opts = RunOptions::verified(VerifyMode::kNone);
    opts.sdc.mem_rate = 0.5;
    EXPECT_THROW(algorithm_by_name("grid3d_optimal").run_opts(shape, 4, opts),
                 Error);
    EXPECT_THROW(algorithm_by_name("summa").run_opts(shape, 4, opts), Error);
  }
  // Memory SDC under rollback recovery: re-execution would mask the repair
  // path instead of exercising it.
  {
    RunOptions opts = RunOptions::verified(VerifyMode::kNone);
    opts.sdc.mem_rate = 0.5;
    opts.checkpoint.interval = 2;
    EXPECT_THROW(
        algorithm_by_name("summa_abft").run_opts({18, 18, 18}, 9, opts),
        Error);
  }
  // Message SDC without the reliable transport: a dropped copy would hang
  // its receiver, so the machine refuses up front.
  {
    RunOptions opts = RunOptions::verified(VerifyMode::kNone);
    opts.sdc.message_rate = 0.1;
    EXPECT_THROW(algorithm_by_name("summa").run_opts(shape, 4, opts), Error);
  }
  // The composition rules over every registry entry: memory SDC needs a
  // checksum correction path (the *_abft entries) in a run that corrects
  // instead of re-executing; elastic shrink-and-regrid does not stack with
  // checkpoint/rollback.  Rejected cells throw; supported cells run.
  const Shape grid_shape{16, 32, 24};
  for (const AlgorithmInfo& algo : algorithm_registry()) {
    const auto has_suffix = [&](const std::string& suffix) {
      return algo.name.size() > suffix.size() &&
             algo.name.compare(algo.name.size() - suffix.size(),
                               suffix.size(), suffix) == 0;
    };
    const bool abft = has_suffix("_abft");
    const bool elastic = has_suffix("_elastic");
    const i64 p = algo.supports(grid_shape, 8) ? 8 : 9;
    ASSERT_TRUE(algo.supports(grid_shape, p)) << algo.name;

    RunOptions mem = RunOptions::verified(VerifyMode::kReference);
    mem.sdc.mem_rate = 0.5;
    RunOptions ckpt = RunOptions::verified(VerifyMode::kReference);
    ckpt.checkpoint.interval = 1;
    ckpt.checkpoint.spares = 1;
    RunOptions both = ckpt;
    both.sdc.mem_rate = 0.5;

    if (abft) {
      EXPECT_NO_THROW(algo.run_opts(grid_shape, p, mem)) << algo.name;
    } else {
      EXPECT_THROW(algo.run_opts(grid_shape, p, mem), Error) << algo.name;
    }
    if (elastic) {
      EXPECT_THROW(algo.run_opts(grid_shape, p, ckpt), Error) << algo.name;
    } else {
      const RunReport report = algo.run_opts(grid_shape, p, ckpt);
      EXPECT_TRUE(report.verified) << algo.name;
      EXPECT_LT(report.max_abs_error, 1e-9) << algo.name;
    }
    EXPECT_THROW(algo.run_opts(grid_shape, p, both), Error) << algo.name;
  }
}

}  // namespace
}  // namespace camb::mm
