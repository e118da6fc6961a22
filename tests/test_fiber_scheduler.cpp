// The fiber scheduler's determinism battery (machine/fiber.hpp).
//
// The headline test is the interleaving fuzz: every registered algorithm,
// at small P, re-run under N seeded random yield orders (chaos mode: one
// worker, seeded run-queue picks, forced yields after every send and
// receive).  The simulation's contract is that its observables — per-rank
// word/message counters, the assembled output's bits, and the scheduled
// critical-path time — are functions of the program, never of the
// interleaving; every chaos schedule must therefore reproduce the
// thread-per-rank baseline exactly.
//
// Around it: direct unit tests of the scheduler itself — completion,
// Fiber::current(), many-fibers-on-few-workers multiplexing, rank-body
// exceptions, and the deadlock detector (a genuine all-parked state must
// be *reported*, not hung on, which thread-per-rank execution cannot do).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "machine/fiber.hpp"
#include "machine/machine.hpp"
#include "matmul/algorithm_registry.hpp"
#include "matmul/runner.hpp"
#include "util/error.hpp"

namespace camb {
namespace {

TEST(FiberScheduler, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  FiberScheduler::run(64, [&](int i) {
    EXPECT_NE(Fiber::current(), nullptr);
    EXPECT_EQ(Fiber::current()->index(), i);
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(Fiber::current(), nullptr) << "fiber leaked past run()";
}

TEST(FiberScheduler, ZeroAndNegativeCountsAreNoops) {
  bool ran = false;
  FiberScheduler::run(0, [&](int) { ran = true; });
  FiberScheduler::run(-3, [&](int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(FiberScheduler, ManyFibersMultiplexOnTwoWorkers) {
  FiberScheduler::Options opts;
  opts.workers = 2;
  std::atomic<int> done{0};
  std::mutex m;
  FiberWaitList waiters;
  int arrivals = 0;
  // A hand-rolled barrier across 256 fibers: with only two workers this
  // cannot complete unless parked fibers release their worker threads.
  FiberScheduler::run(
      256,
      [&](int) {
        std::unique_lock<std::mutex> lock(m);
        if (++arrivals == 256) {
          waiters.notify_all();
        } else {
          while (arrivals < 256) Fiber::current()->park_on(waiters, lock);
          waiters.notify_all();  // chains: each wakeup frees the next
        }
        done.fetch_add(1);
      },
      opts);
  EXPECT_EQ(done.load(), 256);
}

TEST(FiberScheduler, RankBodyExceptionPropagates) {
  try {
    FiberScheduler::run(8, [](int i) {
      if (i == 5) throw Error("rank five exploded");
    });
    FAIL() << "exception was swallowed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank five exploded"),
              std::string::npos);
  }
}

TEST(FiberScheduler, DeadlockDetectedAndReported) {
  std::mutex m;
  FiberWaitList never_notified;
  try {
    // Both fibers park forever; thread-per-rank execution would hang here.
    FiberScheduler::run(2, [&](int) {
      std::unique_lock<std::mutex> lock(m);
      Fiber::current()->park_on(never_notified, lock);
    });
    FAIL() << "deadlock was not detected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
        << e.what();
  }
}

/// Some fibers finish and the rest park forever: the quiescence count still
/// reaches 0, and the error names exactly the parked ranks.
TEST(FiberScheduler, PartialProgressDeadlockNamesTheParkedRanks) {
  FiberScheduler::Options opts;
  opts.workers = 4;
  std::mutex m;
  FiberWaitList never_notified;
  std::atomic<int> finished{0};
  try {
    FiberScheduler::run(
        64,
        [&](int i) {
          if (i % 2 == 0 || i > 16) {
            finished.fetch_add(1);
            return;
          }
          std::unique_lock<std::mutex> lock(m);
          Fiber::current()->park_on(never_notified, lock);
        },
        opts);
    FAIL() << "deadlock was not detected";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("8 of 64 ranks parked with nothing runnable; "
                        "parked ranks: 1 3 5 7 9 11 13 15"),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(finished.load(), 56);
}

/// Steal-heavy traffic on 4 workers: a token passed around 1,024 fibers
/// (one runnable fiber at a time, so whichever worker is awake steals it
/// from the sleeping home worker), then a fan-in where every fiber wakes
/// rank 0.  Every repetition must finish with no deadlock reported: the
/// run may end only when nothing is queued, running or mid-park.
TEST(FiberScheduler, TokenRingAndFanInOnFourWorkersNeverFalselyDeadlock) {
  constexpr int kFibers = 1024;
  constexpr int kRounds = 3;
  FiberScheduler::Options opts;
  opts.workers = 4;
  for (int rep = 0; rep < 10; ++rep) {
    std::mutex m;
    std::vector<FiberWaitList> turn(kFibers);
    FiberWaitList fan_in;
    long token = 0;
    int arrived = 0;
    FiberScheduler::run(
        kFibers,
        [&](int i) {
          std::unique_lock<std::mutex> lock(m);
          for (int r = 0; r < kRounds; ++r) {
            while (token != static_cast<long>(r) * kFibers + i) {
              Fiber::current()->park_on(turn[static_cast<std::size_t>(i)],
                                        lock);
            }
            ++token;
            turn[static_cast<std::size_t>((i + 1) % kFibers)].notify_all();
          }
          ++arrived;
          if (i == 0) {
            while (arrived < kFibers) Fiber::current()->park_on(fan_in, lock);
          } else {
            fan_in.notify_all();
          }
        },
        opts);
    EXPECT_EQ(token, static_cast<long>(kRounds) * kFibers);
    EXPECT_EQ(arrived, kFibers);
  }
}

/// Two schedules in one process, the first spread over 4 workers with one
/// ring holding all the work (the other three must steal it), the second
/// ending in a rank-body exception.  Under ASan the second run's fresh
/// stacks reuse the first run's addresses; they must come back unpoisoned.
TEST(FiberScheduler, StealingRunThenThrowingRunInOneProcess) {
  FiberScheduler::Options opts;
  opts.workers = 4;
  std::atomic<long> sum{0};
  FiberScheduler::run(
      256,
      [&](int i) {
        if (i % 4 != 0) return;  // rings 1-3 drain at once
        long local = 0;
        for (int k = 0; k < 20000; ++k) local += k % (i + 1);
        sum.fetch_add(local + 1);
      },
      opts);
  EXPECT_GT(sum.load(), 0);
  const auto throwing = [](int i) {
    if (i == 17) throw Error("rank 17");
  };
  EXPECT_THROW(FiberScheduler::run(32, throwing, opts), Error);
}

TEST(FiberScheduler, KindNamesRoundTrip) {
  EXPECT_EQ(scheduler_kind_from_name("threads"), SchedulerKind::kThreads);
  EXPECT_EQ(scheduler_kind_from_name("fibers"), SchedulerKind::kFibers);
  EXPECT_EQ(scheduler_kind_from_name("default"), SchedulerKind::kDefault);
  EXPECT_STREQ(scheduler_kind_name(SchedulerKind::kThreads), "threads");
  EXPECT_STREQ(scheduler_kind_name(SchedulerKind::kFibers), "fibers");
  EXPECT_THROW(scheduler_kind_from_name("coroutines"), Error);
  EXPECT_EQ(resolve_scheduler_kind(SchedulerKind::kFibers),
            SchedulerKind::kFibers);
  EXPECT_NE(resolve_scheduler_kind(SchedulerKind::kDefault),
            SchedulerKind::kDefault);
}

// ---------------------------------------------------------------------------
// The interleaving fuzz.

/// Everything the simulation is allowed to observe about a run.
struct Observables {
  std::vector<double> recv, sent;
  std::vector<i64> messages;
  std::uint64_t output_hash = 0;
  std::uint64_t time_bits = 0;  ///< simulated_time, exact bit pattern
  std::map<std::string, double> phase_recv;

  bool operator==(const Observables& o) const {
    return recv == o.recv && sent == o.sent && messages == o.messages &&
           output_hash == o.output_hash && time_bits == o.time_bits &&
           phase_recv == o.phase_recv;
  }
};

Observables observe(const mm::RunReport& report) {
  Observables obs;
  obs.recv = report.rank_recv_words;
  obs.sent = report.rank_sent_words;
  obs.messages = report.rank_messages;
  obs.output_hash = report.output_hash;
  static_assert(sizeof(obs.time_bits) == sizeof(report.simulated_time));
  std::memcpy(&obs.time_bits, &report.simulated_time, sizeof(obs.time_bits));
  obs.phase_recv = report.phase_recv;
  return obs;
}

/// Every registered algorithm, at each supported small P, under
/// kChaosSchedules seeded random yield orders: all observables must equal
/// the thread-per-rank baseline's.  This is the determinism contract under
/// the most adversarial schedules the simulator can produce.
TEST(FiberInterleavingFuzz, AllAlgorithmsInvariantUnderRandomYieldOrders) {
  const core::Shape shape{24, 20, 28};
  const std::vector<i64> procs = {8, 9};
  constexpr std::uint64_t kChaosSchedules = 8;
  for (const auto& algo : mm::algorithm_registry()) {
    for (i64 p : procs) {
      if (!algo.supports(shape, p)) continue;
      mm::RunOptions base = mm::RunOptions::verified(mm::VerifyMode::kReference);
      base.scheduler.kind = SchedulerKind::kThreads;
      const Observables golden = observe(algo.run_opts(shape, p, base));
      for (std::uint64_t seed = 1; seed <= kChaosSchedules; ++seed) {
        mm::RunOptions chaos = base;
        chaos.scheduler.kind = SchedulerKind::kFibers;
        chaos.scheduler.interleave_seed = seed;
        const Observables got = observe(algo.run_opts(shape, p, chaos));
        EXPECT_TRUE(got == golden)
            << algo.name << " P=" << p << " diverged under yield order "
            << seed;
      }
    }
  }
}

/// Crash + rollback under chaos schedules: recovery is the most
/// schedule-sensitive machinery (failure detection, abandon cascades,
/// rollback rounds), so its observables get their own fuzz.
TEST(FiberInterleavingFuzz, CrashRecoveryInvariantUnderRandomYieldOrders) {
  const mm::SummaConfig cfg{{27, 15, 12}, 3};
  mm::RunOptions base = mm::RunOptions::verified(mm::VerifyMode::kReference);
  base.perturb.master_seed = 11;
  base.crash.ranks = {4};
  base.crash.max_send_position = 8;
  base.checkpoint.interval = 1;
  base.checkpoint.spares = 1;
  base.scheduler.kind = SchedulerKind::kThreads;
  const mm::RunReport threads = mm::run_summa(cfg, base);
  ASSERT_FALSE(threads.recovery.crashed.empty());
  const Observables golden = observe(threads);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    mm::RunOptions chaos = base;
    chaos.scheduler.kind = SchedulerKind::kFibers;
    chaos.scheduler.interleave_seed = seed;
    const mm::RunReport report = mm::run_summa(cfg, chaos);
    EXPECT_TRUE(observe(report) == golden)
        << "recovery diverged under yield order " << seed << ": "
        << report.resilience.summary();
    EXPECT_EQ(report.recovery.crashed, threads.recovery.crashed)
        << "yield order " << seed;
    EXPECT_EQ(report.resilience.rounds, threads.resilience.rounds)
        << "yield order " << seed;
  }
}

/// The same chaos seed must give the same schedule: chaos mode is a debug
/// tool, and a non-replayable fuzzer is useless.  (Different seeds already
/// proved result-invariance above; this pins schedule replayability.)
TEST(FiberInterleavingFuzz, ChaosScheduleIsReplayable) {
  const core::Shape shape{24, 20, 28};
  const auto& algo = mm::algorithm_by_name("summa");
  mm::RunOptions chaos = mm::RunOptions::verified(mm::VerifyMode::kReference);
  chaos.scheduler.kind = SchedulerKind::kFibers;
  chaos.scheduler.interleave_seed = 7;
  const Observables a = observe(algo.run_opts(shape, 9, chaos));
  const Observables b = observe(algo.run_opts(shape, 9, chaos));
  EXPECT_TRUE(a == b);
}

/// The ranks in the order they finish their receives, one entry per
/// receive, for a 4×4 SUMMA broadcast pattern (stage t: rank (i, t) sends
/// its A panel along row i, rank (t, j) its B panel along column j) under
/// chaos seed `seed`.  Chaos mode runs one worker, so the log is the
/// schedule itself rather than a race between workers.
std::vector<int> chaos_receive_order(std::uint64_t seed) {
  constexpr int kEdge = 4;
  Machine machine(kEdge * kEdge);
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kFibers;
  spec.interleave_seed = seed;
  machine.set_scheduler(spec);
  std::mutex m;
  std::vector<int> order;
  machine.run([&](RankCtx& ctx) {
    const int i = ctx.rank() / kEdge;
    const int j = ctx.rank() % kEdge;
    for (int t = 0; t < kEdge; ++t) {
      const std::vector<double> panel(4, static_cast<double>(t));
      if (j == t) {
        for (int jj = 0; jj < kEdge; ++jj) {
          if (jj != t) ctx.send(i * kEdge + jj, 2 * t, panel);
        }
      } else {
        (void)ctx.recv(i * kEdge + t, 2 * t);
        std::lock_guard<std::mutex> guard(m);
        order.push_back(ctx.rank());
      }
      if (i == t) {
        for (int ii = 0; ii < kEdge; ++ii) {
          if (ii != t) ctx.send(ii * kEdge + j, 2 * t + 1, panel);
        }
      } else {
        (void)ctx.recv(t * kEdge + j, 2 * t + 1);
        std::lock_guard<std::mutex> guard(m);
        order.push_back(ctx.rank());
      }
    }
  });
  return order;
}

/// FNV-1a over the log.
std::uint64_t digest(const std::vector<int>& order) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int r : order) {
    h ^= static_cast<std::uint64_t>(r);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The chaos schedule itself, not just its observables (which are
/// schedule-invariant by construction): every seed must replay the exact
/// receive order recorded before the scheduler moved to per-worker queues,
/// and two runs of one seed must agree.
TEST(FiberInterleavingFuzz, ChaosScheduleMatchesRecordedReceiveOrder) {
  const std::uint64_t kRecorded[8] = {
      0x53ee9e59ac21b977ULL, 0x91a7d54ece84f139ULL, 0xfd1ea84a761ffa27ULL,
      0xf8b6e6800499e1cbULL, 0xa8c95e1e07ae0fb9ULL, 0x3a6289643a81c891ULL,
      0x1adb21db7be3efdfULL, 0xc3a261d1163b3d47ULL};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::vector<int> a = chaos_receive_order(seed);
    EXPECT_EQ(a.size(), 96u);
    EXPECT_EQ(a, chaos_receive_order(seed)) << "seed " << seed;
    EXPECT_EQ(digest(a), kRecorded[seed - 1]) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Machine-level plumbing.

TEST(FiberMachine, EnvAndDefaultKindPlumbing) {
  // set_default_scheduler_kind overrides; kDefault specs resolve through it.
  set_default_scheduler_kind(SchedulerKind::kFibers);
  EXPECT_EQ(resolve_scheduler_kind(SchedulerKind::kDefault),
            SchedulerKind::kFibers);
  EXPECT_EQ(resolve_scheduler_kind(SchedulerKind::kThreads),
            SchedulerKind::kThreads);
  set_default_scheduler_kind(SchedulerKind::kDefault);  // back to env/threads
}

TEST(FiberMachine, MachineRunsUnderExplicitFiberSpec) {
  Machine machine(16);
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kFibers;
  machine.set_scheduler(spec);
  std::atomic<int> sum{0};
  machine.run([&](RankCtx& ctx) {
    if (ctx.rank() > 0) {
      ctx.send(0, 1, std::vector<double>(3, 1.0));
    } else {
      for (int src = 1; src < 16; ++src) {
        std::vector<double> got = ctx.recv(src, 1);
        EXPECT_EQ(got.size(), 3u);
      }
    }
    ctx.barrier();
    sum.fetch_add(1);
  });
  EXPECT_EQ(sum.load(), 16);
  EXPECT_EQ(machine.stats().total_words_sent(), 45);
}

/// A Machine::run nested inside a fiber's rank body must not wedge the
/// scheduler: the inner machine's thread-per-rank mode falls back to plain
/// std::threads (the WorkerPool is held by the outer run's workers).
TEST(FiberMachine, NestedMachineRunInsideFiberCompletes) {
  Machine outer(4);
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kFibers;
  outer.set_scheduler(spec);
  std::atomic<int> inner_total{0};
  outer.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      Machine inner(2);
      inner.run([&](RankCtx& ictx) {
        if (ictx.rank() == 0) {
          ictx.send(1, 1, std::vector<double>(2, 1.0));
        } else {
          (void)ictx.recv(0, 1);
        }
        inner_total.fetch_add(1);
      });
    }
    ctx.barrier();
  });
  EXPECT_EQ(inner_total.load(), 2);
}

}  // namespace
}  // namespace camb
