// Golden equivalence sweep: every registry algorithm, at P in
// {8, 16, 27, 36, 64} and 8 master seeds, must reproduce the exact
// communication profile and output bits recorded in
// tests/golden/equivalence_sweep.txt.
//
// The golden file was generated from the pre-communicator (group +
// tag_base) codebase, so this sweep is the proof that the `coll::Comm`
// cutover changed no algorithm's behavior: per-rank sent/received words,
// per-rank message counts, the scheduled critical-path time, and the
// assembled output's bit pattern are all pinned, run by run.
//
// The sweep runs under BOTH rank schedulers (thread-per-rank and fibers)
// against the same golden records: the fiber cutover must be invisible in
// every pinned bit, which is the simulator's determinism contract
// (machine/fiber.hpp) made checkable.
//
// Since the scalar-substrate refactor the sweep also pins dtype legs: f32
// and i64 records for SUMMA and Algorithm 1 (keys "<algo>~<dtype>"), run
// under both schedulers like everything else.  Per-rank word counts are
// doubles now (exact halves for f32), so the counts hash folds their exact
// bit patterns; f64 output/time hashes are unchanged from the pre-dtype
// harness because the f64 data path is bit-identical.
//
// A checkpoint leg (tests/golden/checkpoint_sweep.txt) pins the rollback
// path the same way: every checkpoint-capable registry algorithm, clean and
// with one seeded crash, in f64 and f32, under both schedulers.  Besides the
// counts/time/output fingerprints it records the agreed rollback outcome
// (rounds, final epoch, failed set).  Peak memory is deliberately left out.
//
// An elastic leg (tests/golden/elastic_sweep.txt) pins shrink-and-regrid:
// the three elastic registry entries, clean, with one seeded crash, and with
// two crashes under a failure budget of two, in f64 and f32, under both
// schedulers.  Each record adds the agreed outcome (rounds, failed set,
// survivors, active ranks, final grid).
//
// Regenerate (only when an *intentional* behavior change lands) with:
//   CAMB_WRITE_GOLDEN=1 ./test_equivalence_sweep
// (add --gtest_filter=CheckpointSweepGolden.* or ElasticSweepGolden.* to
// rewrite only that leg's file, or EquivalenceSweepGolden.* for the main one).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "matmul/algorithm_registry.hpp"
#include "matmul/runner.hpp"

namespace camb::mm {
namespace {

const Shape kShape{48, 40, 56};
const std::vector<i64> kProcs = {8, 16, 27, 36, 64};
const std::vector<std::uint64_t> kMasterSeeds = {101, 102, 103, 104,
                                                 105, 106, 107, 108};

/// The dtype legs: every (algo, dtype) pair here gets its own golden records
/// at every supported P and seed, under both schedulers.
const std::vector<DType> kDtypes = {DType::kF32, DType::kI64};
const std::vector<std::string> kDtypeAlgos = {"grid3d_optimal", "summa"};

/// Verification tolerance per dtype: i64 is exact, f32 carries
/// single-precision rounding against the serially-summed reference.
double verify_tol(DType d) { return d == DType::kF32 ? 1e-3 : 1e-9; }

std::string golden_path() {
  return std::string(CAMB_GOLDEN_DIR) + "/equivalence_sweep.txt";
}

/// FNV-1a over a stream of 64-bit values: folds the per-rank count vectors
/// into one fingerprint per run (the raw vectors are printed on mismatch).
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add_all(const std::vector<i64>& xs) {
    add(static_cast<std::uint64_t>(xs.size()));
    for (i64 x : xs) add(static_cast<std::uint64_t>(x));
  }
  /// Word vectors are doubles (exact halves possible): fold the exact bit
  /// pattern of every entry, so any change — even by half a word — shows.
  void add_all(const std::vector<double>& xs) {
    add(static_cast<std::uint64_t>(xs.size()));
    for (double x : xs) {
      std::uint64_t bits;
      static_assert(sizeof(bits) == sizeof(x));
      std::memcpy(&bits, &x, sizeof(bits));
      add(bits);
    }
  }
};

/// One golden record: everything the sweep pins for a (algo, P, seed) run.
struct Record {
  std::uint64_t counts_hash = 0;  ///< per-rank recv/sent/message vectors
  std::uint64_t time_bits = 0;    ///< simulated_time, exact bit pattern
  std::uint64_t output_hash = 0;  ///< assembled C, exact bit pattern
};

bool operator==(const Record& a, const Record& b) {
  return a.counts_hash == b.counts_hash && a.time_bits == b.time_bits &&
         a.output_hash == b.output_hash;
}

std::string key_of(const std::string& algo, i64 p, std::uint64_t seed,
                   DType dtype = DType::kF64) {
  std::ostringstream out;
  out << algo;
  if (dtype != DType::kF64) out << "~" << dtype_name(dtype);
  out << " P=" << p << " seed=" << seed;
  return out.str();
}

Record record_of(const RunReport& report) {
  Record rec;
  Fnv fnv;
  fnv.add_all(report.rank_recv_words);
  fnv.add_all(report.rank_sent_words);
  fnv.add_all(report.rank_messages);
  rec.counts_hash = fnv.h;
  static_assert(sizeof(rec.time_bits) == sizeof(report.simulated_time));
  std::memcpy(&rec.time_bits, &report.simulated_time, sizeof(rec.time_bits));
  rec.output_hash = report.output_hash;
  return rec;
}

RunReport run_one(const AlgorithmInfo& algo, i64 p, std::uint64_t seed,
                  SchedulerKind scheduler, DType dtype = DType::kF64) {
  RunOptions opts = RunOptions::verified(VerifyMode::kReference);
  opts.perturb.master_seed = seed;
  // Explicit kind (never kDefault): the sweep must pin both substrates
  // regardless of any $CAMB_SCHEDULER ambient override.
  opts.scheduler.kind = scheduler;
  opts.dtype = dtype;
  return algo.run_opts(kShape, p, opts);
}

std::map<std::string, Record> load_golden() {
  std::map<std::string, Record> golden;
  std::ifstream in(golden_path());
  if (!in) return golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // Format: <algo> P=<p> seed=<s> | counts=<hex> time=<hex> out=<hex>
    const auto bar = line.find(" | ");
    Record rec;
    char counts[17], time[17], out[17];
    if (bar == std::string::npos ||
        std::sscanf(line.c_str() + bar + 3, "counts=%16s time=%16s out=%16s",
                    counts, time, out) != 3) {
      ADD_FAILURE() << "bad golden line: " << line;
      continue;
    }
    rec.counts_hash = std::stoull(counts, nullptr, 16);
    rec.time_bits = std::stoull(time, nullptr, 16);
    rec.output_hash = std::stoull(out, nullptr, 16);
    golden[line.substr(0, bar)] = rec;
  }
  return golden;
}

void write_golden(const std::map<std::string, Record>& records) {
  std::ofstream out(golden_path());
  ASSERT_TRUE(out) << "cannot write " << golden_path();
  out << "# Golden equivalence records: shape 48x40x56, reference-verified.\n"
      << "# One line per (algorithm, P, master seed); hashes are FNV-1a.\n";
  for (const auto& [key, rec] : records) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s | counts=%016llx time=%016llx out=%016llx",
                  key.c_str(), static_cast<unsigned long long>(rec.counts_hash),
                  static_cast<unsigned long long>(rec.time_bits),
                  static_cast<unsigned long long>(rec.output_hash));
    out << buf << "\n";
  }
}

bool write_mode() { return std::getenv("CAMB_WRITE_GOLDEN") != nullptr; }

/// The sweep itself, parameterized over (P, scheduler) so failures localize
/// and the runs parallelize under ctest.  Both scheduler legs assert
/// against the SAME golden records — bit-identity across substrates is the
/// whole point.
class EquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<i64, SchedulerKind>> {};

TEST_P(EquivalenceSweep, MatchesGolden) {
  const i64 p = std::get<0>(GetParam());
  const SchedulerKind scheduler = std::get<1>(GetParam());
  const auto golden = load_golden();
  if (!write_mode()) {
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << golden_path()
        << " — regenerate with CAMB_WRITE_GOLDEN=1";
  }
  std::map<std::string, Record> fresh;
  for (const auto& algo : algorithm_registry()) {
    if (!algo.supports(kShape, p)) continue;
    for (std::uint64_t seed : kMasterSeeds) {
      const RunReport report = run_one(algo, p, seed, scheduler);
      ASSERT_TRUE(report.verified);
      // Bit-exactness is asserted against the golden output hash below;
      // against the serial reference only closeness holds (summation order).
      ASSERT_LT(report.max_abs_error, 1e-9)
          << algo.name << " P=" << p << " seed=" << seed;
      fresh[key_of(algo.name, p, seed)] = record_of(report);
    }
  }
  for (const std::string& name : kDtypeAlgos) {
    const AlgorithmInfo& algo = algorithm_by_name(name);
    if (!algo.supports(kShape, p)) continue;
    for (DType dtype : kDtypes) {
      for (std::uint64_t seed : kMasterSeeds) {
        const RunReport report = run_one(algo, p, seed, scheduler, dtype);
        ASSERT_TRUE(report.verified);
        ASSERT_LT(report.max_abs_error, verify_tol(dtype))
            << name << "~" << dtype_name(dtype) << " P=" << p
            << " seed=" << seed;
        fresh[key_of(name, p, seed, dtype)] = record_of(report);
      }
    }
  }
  if (write_mode()) return;  // collected by the writer test below
  for (const auto& [key, rec] : fresh) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "no golden record for " << key;
    EXPECT_TRUE(rec == it->second)
        << key << " diverged from golden:\n  counts " << std::hex
        << rec.counts_hash << " vs " << it->second.counts_hash << "\n  time "
        << rec.time_bits << " vs " << it->second.time_bits << "\n  output "
        << rec.output_hash << " vs " << it->second.output_hash;
  }
  // Nothing in the golden file for this P may have silently disappeared
  // (e.g. an algorithm dropping support for a grid it used to run on).
  const std::string p_tag = " P=" + std::to_string(p) + " ";
  for (const auto& [key, rec] : golden) {
    if (key.find(p_tag) == std::string::npos) continue;
    EXPECT_TRUE(fresh.count(key)) << "golden record no longer produced: " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGrids, EquivalenceSweep,
    ::testing::Combine(::testing::ValuesIn(kProcs),
                       ::testing::Values(SchedulerKind::kThreads,
                                         SchedulerKind::kFibers)),
    [](const ::testing::TestParamInfo<std::tuple<i64, SchedulerKind>>& info) {
      return "P" + std::to_string(std::get<0>(info.param)) + "_" +
             scheduler_kind_name(std::get<1>(info.param));
    });

/// Regeneration entry point: under CAMB_WRITE_GOLDEN, re-runs the whole
/// sweep and rewrites the golden file in one pass.
TEST(EquivalenceSweepGolden, WriteIfRequested) {
  if (!write_mode()) {
    GTEST_SKIP() << "set CAMB_WRITE_GOLDEN=1 to regenerate "
                 << golden_path();
  }
  std::map<std::string, Record> records;
  for (const auto& algo : algorithm_registry()) {
    for (i64 p : kProcs) {
      if (!algo.supports(kShape, p)) continue;
      for (std::uint64_t seed : kMasterSeeds) {
        // Golden records are always written from the thread-per-rank
        // substrate; the fiber leg must reproduce them, never define them.
        const RunReport report = run_one(algo, p, seed, SchedulerKind::kThreads);
        ASSERT_TRUE(report.verified);
        records[key_of(algo.name, p, seed)] = record_of(report);
      }
    }
  }
  for (const std::string& name : kDtypeAlgos) {
    const AlgorithmInfo& algo = algorithm_by_name(name);
    for (i64 p : kProcs) {
      if (!algo.supports(kShape, p)) continue;
      for (DType dtype : kDtypes) {
        for (std::uint64_t seed : kMasterSeeds) {
          const RunReport report =
              run_one(algo, p, seed, SchedulerKind::kThreads, dtype);
          ASSERT_TRUE(report.verified);
          records[key_of(name, p, seed, dtype)] = record_of(report);
        }
      }
    }
  }
  write_golden(records);
}

// ---------------------------------------------------------------------------
// Checkpoint leg.
// ---------------------------------------------------------------------------

const Shape kCkptShape{16, 32, 24};
/// Each algorithm runs at the first of these P it supports.
const std::vector<i64> kCkptProcs = {8, 9};
const std::vector<std::string> kCkptAlgos = {
    "grid3d_optimal", "grid3d_agarwal95", "grid3d_staged4", "carma",
    "summa",          "summa_abft",       "grid3d_abft",    "cannon",
    "alg25d",         "naive_bcast"};
const std::vector<DType> kCkptDtypes = {DType::kF64, DType::kF32};
constexpr std::uint64_t kCkptSeed = 23;
constexpr int kCkptCrashRank = 1;

std::string ckpt_golden_path() {
  return std::string(CAMB_GOLDEN_DIR) + "/checkpoint_sweep.txt";
}

/// One checkpoint record: the equivalence fingerprints plus the agreed
/// rollback outcome, rendered as the text after " | ".
std::string ckpt_record_of(const RunReport& report) {
  const Record rec = record_of(report);
  std::ostringstream failed;
  for (std::size_t i = 0; i < report.resilience.failed.size(); ++i) {
    failed << (i > 0 ? "," : "") << report.resilience.failed[i];
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "counts=%016llx time=%016llx out=%016llx rounds=%d epoch=%lld "
                "failed=[%s]",
                static_cast<unsigned long long>(rec.counts_hash),
                static_cast<unsigned long long>(rec.time_bits),
                static_cast<unsigned long long>(rec.output_hash),
                report.resilience.rounds,
                static_cast<long long>(report.resilience.final_epoch),
                failed.str().c_str());
  return buf;
}

/// Every checkpoint run of the leg under one scheduler, keyed
/// "<algo>[~dtype] P=<p> <clean|crash>".
std::map<std::string, std::string> run_ckpt_sweep(SchedulerKind scheduler) {
  std::map<std::string, std::string> records;
  for (const std::string& name : kCkptAlgos) {
    const AlgorithmInfo& algo = algorithm_by_name(name);
    i64 p = 0;
    for (i64 candidate : kCkptProcs) {
      if (algo.supports(kCkptShape, candidate)) {
        p = candidate;
        break;
      }
    }
    EXPECT_GT(p, 0) << name << " supports none of the checkpoint-leg P";
    if (p == 0) continue;
    for (DType dtype : kCkptDtypes) {
      for (bool crash : {false, true}) {
        RunOptions opts = RunOptions::verified(VerifyMode::kReference);
        opts.perturb.master_seed = kCkptSeed;
        opts.scheduler.kind = scheduler;
        opts.dtype = dtype;
        opts.checkpoint.interval = 1;
        opts.checkpoint.spares = 1;
        if (crash) {
          opts.crash.ranks = {kCkptCrashRank};
          opts.crash.max_send_position = 4;
        }
        const std::string key = key_of(name, p, kCkptSeed, dtype) +
                                (crash ? " crash" : " clean");
        const RunReport report = algo.run_opts(kCkptShape, p, opts);
        EXPECT_TRUE(report.verified) << key;
        EXPECT_LT(report.max_abs_error, verify_tol(dtype)) << key;
        EXPECT_EQ(report.recovery.crashed.empty(), !crash)
            << key << ": " << report.resilience.summary();
        records[key] = ckpt_record_of(report);
      }
    }
  }
  return records;
}

class CheckpointSweep : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(CheckpointSweep, MatchesGolden) {
  if (write_mode()) GTEST_SKIP() << "golden being rewritten";
  std::map<std::string, std::string> golden;
  std::ifstream in(ckpt_golden_path());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto bar = line.find(" | ");
    ASSERT_NE(bar, std::string::npos) << "bad golden line: " << line;
    golden[line.substr(0, bar)] = line.substr(bar + 3);
  }
  ASSERT_FALSE(golden.empty()) << "missing golden file " << ckpt_golden_path()
                               << " — regenerate with CAMB_WRITE_GOLDEN=1";
  const auto fresh = run_ckpt_sweep(GetParam());
  EXPECT_EQ(fresh.size(), golden.size());
  for (const auto& [key, rec] : fresh) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "no golden record for " << key;
    EXPECT_EQ(rec, it->second) << key << " diverged from golden";
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothSchedulers, CheckpointSweep,
    ::testing::Values(SchedulerKind::kThreads, SchedulerKind::kFibers),
    [](const ::testing::TestParamInfo<SchedulerKind>& info) {
      return std::string(scheduler_kind_name(info.param));
    });

/// Regeneration entry point for the checkpoint leg (thread scheduler, like
/// the main sweep's writer).
TEST(CheckpointSweepGolden, WriteIfRequested) {
  if (!write_mode()) {
    GTEST_SKIP() << "set CAMB_WRITE_GOLDEN=1 to regenerate "
                 << ckpt_golden_path();
  }
  const auto records = run_ckpt_sweep(SchedulerKind::kThreads);
  std::ofstream out(ckpt_golden_path());
  ASSERT_TRUE(out) << "cannot write " << ckpt_golden_path();
  out << "# Golden checkpoint records: shape 16x32x24, interval 1, 1 spare,\n"
      << "# reference-verified; crash legs crash rank " << kCkptCrashRank
      << ". Hashes are FNV-1a.\n";
  for (const auto& [key, rec] : records) out << key << " | " << rec << "\n";
}

// ---------------------------------------------------------------------------
// Elastic leg.
// ---------------------------------------------------------------------------

const Shape kElasticShape{48, 40, 56};
/// Each algorithm runs at the first of these P it supports.
const std::vector<i64> kElasticProcs = {27, 16};
const std::vector<std::string> kElasticAlgos = {
    "summa_elastic", "grid3d_elastic", "alg25d_elastic"};
constexpr std::uint64_t kElasticSeed = 31;

/// One crash scenario of the elastic leg: the armed ranks (crash positions
/// drawn from [0, max_send] by the master seed) and the failure budget.
struct ElasticScenario {
  const char* name;
  std::vector<int> ranks;
  i64 max_send;
  int max_failures;
};
const std::vector<ElasticScenario> kElasticScenarios = {
    {"clean", {}, 0, 1},
    {"crash1", {kCkptCrashRank}, 120, 1},
    {"crash2", {kCkptCrashRank, 4}, 120, 2},
};

std::string elastic_golden_path() {
  return std::string(CAMB_GOLDEN_DIR) + "/elastic_sweep.txt";
}

/// One elastic record: the equivalence fingerprints plus the agreed
/// shrink-and-regrid outcome (rounds, failed set, P′, active ranks, grid).
std::string elastic_record_of(const RunReport& report) {
  const Record rec = record_of(report);
  const ElasticReport& e = report.elastic;
  std::ostringstream failed;
  for (std::size_t i = 0; i < e.failed.size(); ++i) {
    failed << (i > 0 ? "," : "") << e.failed[i];
  }
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "counts=%016llx time=%016llx out=%016llx rounds=%d "
                "failed=[%s] survivors=%lld active=%lld grid=%lldx%lldx%lld",
                static_cast<unsigned long long>(rec.counts_hash),
                static_cast<unsigned long long>(rec.time_bits),
                static_cast<unsigned long long>(rec.output_hash), e.rounds,
                failed.str().c_str(), static_cast<long long>(e.survivors),
                static_cast<long long>(e.active_ranks),
                static_cast<long long>(e.grid.p1),
                static_cast<long long>(e.grid.p2),
                static_cast<long long>(e.grid.p3));
  return buf;
}

/// Every elastic run of the leg under one scheduler, keyed
/// "<algo>[~dtype] P=<p> seed=<s> <scenario>".
std::map<std::string, std::string> run_elastic_sweep(SchedulerKind scheduler) {
  std::map<std::string, std::string> records;
  for (const std::string& name : kElasticAlgos) {
    const AlgorithmInfo& algo = algorithm_by_name(name);
    i64 p = 0;
    for (i64 candidate : kElasticProcs) {
      if (algo.supports(kElasticShape, candidate)) {
        p = candidate;
        break;
      }
    }
    EXPECT_GT(p, 0) << name << " supports none of the elastic-leg P";
    if (p == 0) continue;
    for (DType dtype : kCkptDtypes) {
      for (const ElasticScenario& sc : kElasticScenarios) {
        RunOptions opts = RunOptions::verified(VerifyMode::kReference);
        opts.perturb.master_seed = kElasticSeed;
        opts.scheduler.kind = scheduler;
        opts.dtype = dtype;
        opts.crash.ranks = sc.ranks;
        opts.crash.max_send_position = sc.max_send;
        opts.elastic.max_failures = sc.max_failures;
        const std::string key =
            key_of(name, p, kElasticSeed, dtype) + " " + sc.name;
        const RunReport report = algo.run_opts(kElasticShape, p, opts);
        EXPECT_TRUE(report.verified) << key;
        EXPECT_LT(report.max_abs_error, verify_tol(dtype)) << key;
        EXPECT_TRUE(report.elastic.enabled) << key;
        records[key] = elastic_record_of(report);
      }
    }
  }
  return records;
}

class ElasticSweep : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(ElasticSweep, MatchesGolden) {
  if (write_mode()) GTEST_SKIP() << "golden being rewritten";
  std::map<std::string, std::string> golden;
  std::ifstream in(elastic_golden_path());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto bar = line.find(" | ");
    ASSERT_NE(bar, std::string::npos) << "bad golden line: " << line;
    golden[line.substr(0, bar)] = line.substr(bar + 3);
  }
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << elastic_golden_path()
      << " — regenerate with CAMB_WRITE_GOLDEN=1";
  const auto fresh = run_elastic_sweep(GetParam());
  EXPECT_EQ(fresh.size(), golden.size());
  for (const auto& [key, rec] : fresh) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "no golden record for " << key;
    EXPECT_EQ(rec, it->second) << key << " diverged from golden";
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothSchedulers, ElasticSweep,
    ::testing::Values(SchedulerKind::kThreads, SchedulerKind::kFibers),
    [](const ::testing::TestParamInfo<SchedulerKind>& info) {
      return std::string(scheduler_kind_name(info.param));
    });

/// Regeneration entry point for the elastic leg (thread scheduler).
TEST(ElasticSweepGolden, WriteIfRequested) {
  if (!write_mode()) {
    GTEST_SKIP() << "set CAMB_WRITE_GOLDEN=1 to regenerate "
                 << elastic_golden_path();
  }
  const auto records = run_elastic_sweep(SchedulerKind::kThreads);
  std::ofstream out(elastic_golden_path());
  ASSERT_TRUE(out) << "cannot write " << elastic_golden_path();
  out << "# Golden elastic records: shape 48x40x56, reference-verified;\n"
      << "# crash1 arms rank " << kCkptCrashRank << ", crash2 ranks "
      << kCkptCrashRank << ",4 with max_failures 2. Hashes are FNV-1a.\n";
  for (const auto& [key, rec] : records) out << key << " | " << rec << "\n";
}

}  // namespace
}  // namespace camb::mm
