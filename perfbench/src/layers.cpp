// layers.cpp — the traced run's outside-in layer probes (see layers.hpp).
#include "layers.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>

#include "machine/machine.hpp"
#include "matmul/distribution.hpp"
#include "matmul/local_gemm.hpp"
#include "util/error.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// ---- trace replay ----------------------------------------------------------

ReplayPlan replay_plan(int nprocs, std::vector<camb::MessageEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const camb::MessageEvent& a, const camb::MessageEvent& b) {
              return a.seq < b.seq;
            });
  ReplayPlan plan;
  plan.nprocs = nprocs;
  plan.ops.resize(static_cast<std::size_t>(nprocs));
  for (const camb::MessageEvent& e : events) {
    CAMB_CHECK_MSG(e.bytes % 8 == 0,
                   "trace replay carries whole 8-byte words only");
    auto found = std::find(plan.phases.begin(), plan.phases.end(), e.phase);
    const int phase = static_cast<int>(found - plan.phases.begin());
    if (found == plan.phases.end()) plan.phases.push_back(e.phase);
    plan.ops[static_cast<std::size_t>(e.src)].push_back(
        {e.bytes, e.dst, e.tag, phase, true});
    plan.ops[static_cast<std::size_t>(e.dst)].push_back(
        {e.bytes, e.src, e.tag, phase, false});
    ++plan.messages;
    plan.bytes += e.bytes;
  }
  return plan;
}

ReplayPlan phase_plan(const ReplayPlan& full, const std::string& phase) {
  ReplayPlan sub;
  sub.nprocs = full.nprocs;
  sub.phases = full.phases;
  sub.ops.resize(full.ops.size());
  const auto found = std::find(full.phases.begin(), full.phases.end(), phase);
  if (found == full.phases.end()) return sub;
  const int id = static_cast<int>(found - full.phases.begin());
  for (std::size_t r = 0; r < full.ops.size(); ++r) {
    for (const ReplayOp& op : full.ops[r]) {
      if (op.phase != id) continue;
      sub.ops[r].push_back(op);
      if (op.send) {
        ++sub.messages;
        sub.bytes += op.bytes;
      }
    }
  }
  return sub;
}

ReplayResult replay(const ReplayPlan& plan, const camb::SchedulerSpec& spec,
                    std::uint64_t seed, bool count_allocs) {
  camb::Machine machine(plan.nprocs, seed);
  machine.set_scheduler(spec);
  ReplayResult out;
  alloc::set_counting(count_allocs);
  const alloc::Counts a0 = alloc::read();
  const Usage u0 = usage_now();
  machine.run([&](camb::RankCtx& ctx) {
    int current = -1;
    for (const ReplayOp& op : plan.ops[static_cast<std::size_t>(ctx.rank())]) {
      if (op.phase != current) {
        current = op.phase;
        ctx.set_phase(plan.phases[static_cast<std::size_t>(current)]);
      }
      if (op.send) {
        ctx.send(op.peer, op.tag,
                 camb::Buffer::zeros(static_cast<std::size_t>(op.bytes / 8)));
      } else {
        ctx.recv(op.peer, op.tag);
      }
    }
  });
  out.usage = usage_delta(u0, usage_now());
  out.allocs = alloc::delta(a0, alloc::read());
  alloc::set_counting(false);
  for (int r = 0; r < plan.nprocs; ++r) {
    const camb::PhaseCounters totals = machine.stats().rank_total(r);
    out.counts.messages_sent.push_back(totals.messages_sent);
    out.counts.sent_words.push_back(totals.words_sent());
    out.counts.recv_words.push_back(totals.words_received());
    const camb::BufferPool::Stats pool = machine.network().pool(r).stats();
    out.pool_acquires += pool.acquires;
    out.pool_reuses += pool.reuses;
  }
  return out;
}

double spawn_seconds(int nprocs, const camb::SchedulerSpec& spec,
                     std::uint64_t seed) {
  camb::Machine machine(nprocs, seed);
  machine.set_scheduler(spec);
  const auto t0 = Clock::now();
  machine.run([](camb::RankCtx&) {});
  return seconds_since(t0);
}

// ---- GEMM replay -----------------------------------------------------------

namespace {

/// Run body(t) on `threads` threads and return the wall time of the whole.
template <class Body>
double timed_fanout(int threads, Body body) {
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  const auto t0 = Clock::now();
  for (int t = 0; t < threads; ++t) pool.emplace_back(body, t);
  for (std::thread& th : pool) th.join();
  return seconds_since(t0);
}

}  // namespace

GemmReplayResult gemm_replay(const BlockProduct& bp, int threads) {
  using camb::MatrixD;
  const camb::core::Shape& s = bp.shape;
  MatrixD a(s.n1, s.n2), b(s.n2, s.n3);
  a.fill_indexed(0, 0);
  b.fill_indexed(0, 0);
  const camb::mm::BlockDist1D d1(s.n1, bp.r1), d2(s.n2, bp.r2),
      d3(s.n3, bp.r3);
  std::vector<MatrixD> ab, bb, cb;
  for (i64 i = 0; i < bp.r1; ++i) {
    for (i64 j = 0; j < bp.r2; ++j) {
      ab.push_back(a.block(d1.start(i), d2.start(j), d1.size(i), d2.size(j)));
    }
  }
  for (i64 j = 0; j < bp.r2; ++j) {
    for (i64 k = 0; k < bp.r3; ++k) {
      bb.push_back(b.block(d2.start(j), d3.start(k), d2.size(j), d3.size(k)));
    }
  }
  for (i64 i = 0; i < bp.r1; ++i) {
    for (i64 k = 0; k < bp.r3; ++k) cb.emplace_back(d1.size(i), d3.size(k));
  }

  GemmReplayResult out;
  for (i64 i = 0; i < bp.r1; ++i) {
    for (i64 j = 0; j < bp.r2; ++j) {
      for (i64 k = 0; k < bp.r3; ++k) {
        const double m = static_cast<double>(d1.size(i));
        const double kk = static_cast<double>(d2.size(j));
        const double n = static_cast<double>(d3.size(k));
        ++out.calls;
        out.flops += 2.0 * m * kk * n;
        out.bytes += 8.0 * (m * kk + kk * n + 2.0 * m * n);
      }
    }
  }

  // Each thread owns whole C blocks (round-robin), so no two threads ever
  // accumulate into the same block.
  const i64 c_blocks = bp.r1 * bp.r3;
  out.seconds = timed_fanout(threads, [&](int t) {
    for (i64 c = t; c < c_blocks; c += threads) {
      const i64 i = c / bp.r3, k = c % bp.r3;
      for (i64 j = 0; j < bp.r2; ++j) {
        camb::mm::gemm_accumulate(ab[static_cast<std::size_t>(i * bp.r2 + j)],
                                  bb[static_cast<std::size_t>(j * bp.r3 + k)],
                                  cb[static_cast<std::size_t>(c)]);
      }
    }
  });

  out.c = MatrixD(s.n1, s.n3);
  for (i64 c = 0; c < c_blocks; ++c) {
    const i64 i = c / bp.r3, k = c % bp.r3;
    out.c.set_block(d1.start(i), d3.start(k), cb[static_cast<std::size_t>(c)]);
  }
  return out;
}

double gemm_peak_gflops(int threads, double min_seconds) {
  // Square products whose three operands (at most 1.5 MiB) stay in a
  // core's L2 on current server parts.  The kernel's rate depends on how the
  // size meets its panel blocking, so the peak is the best of three sizes,
  // each run for a third of the time.
  double best = 0;
  for (const i64 dim : {i64{64}, i64{128}, i64{256}}) {
    std::vector<long> calls(static_cast<std::size_t>(threads), 0);
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(min_seconds / 3));
    const double wall = timed_fanout(threads, [&](int t) {
      camb::Rng rng(0x9EA4u, static_cast<std::uint64_t>(t));
      camb::MatrixD a(dim, dim), b(dim, dim), c(dim, dim);
      a.fill_random(rng);
      b.fill_random(rng);
      long n = 0;
      do {
        camb::mm::gemm_accumulate(a, b, c);
        ++n;
      } while (Clock::now() < deadline);
      calls[static_cast<std::size_t>(t)] = n;
    });
    long total = 0;
    for (long n : calls) total += n;
    const double flops = 2.0 * static_cast<double>(dim * dim * dim);
    best = std::max(best, flops * static_cast<double>(total) / wall / 1e9);
  }
  return best;
}

// ---- planner probe ---------------------------------------------------------

bool same_bits(const camb::planner::PlanResult& a,
               const camb::planner::PlanResult& b) {
  auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return a.grid == b.grid && bits(a.cost_words) == bits(b.cost_words) &&
         a.regime == b.regime && bits(a.bound_words) == bits(b.bound_words) &&
         bits(a.ratio) == bits(b.ratio) && bits(a.real.p) == bits(b.real.p) &&
         bits(a.real.q) == bits(b.real.q) && bits(a.real.r) == bits(b.real.r) &&
         a.real.regime == b.real.regime && a.exact_grid == b.exact_grid;
}

PlannerProbe probe_planner(const camb::planner::PlanRequest& req) {
  namespace pl = camb::planner;
  constexpr int kColdReps = 5;
  constexpr int kWarmReps = 20000;
  PlannerProbe out;
  pl::PlanResult oracle;
  for (int rep = 0; rep < kColdReps; ++rep) {
    const auto t0 = Clock::now();
    oracle = pl::plan_uncached(req);
    out.solve_ms.push_back(seconds_since(t0) * 1e3);
  }
  for (int rep = 0; rep < kColdReps; ++rep) {
    pl::FactorCache::instance().clear();
    pl::GridPlanner planner;
    const auto t0 = Clock::now();
    const pl::PlanResult got = planner.plan(req);
    out.cold_ms.push_back(seconds_since(t0) * 1e3);
    out.identical = out.identical && same_bits(got, oracle);
  }
  pl::GridPlanner planner;
  pl::PlanResult got = planner.plan(req);
  const double clock_ns = clock_read_ns();
  out.warm_ns.reserve(kWarmReps);
  for (int rep = 0; rep < kWarmReps; ++rep) {
    const auto t0 = Clock::now();
    got = planner.plan(req);
    out.warm_ns.push_back(seconds_since(t0) * 1e9 - clock_ns);
  }
  out.identical = out.identical && same_bits(got, oracle);
  const pl::PlannerStats stats = planner.stats();
  const double queries =
      static_cast<double>(stats.point.hits + stats.point.misses);
  out.hit_ratio = queries > 0 ? static_cast<double>(stats.point.hits) / queries
                              : 0.0;
  return out;
}

}  // namespace perfbench
