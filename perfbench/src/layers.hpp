// layers.hpp — the traced run's outside-in probes.  Each probe times calls
// into one layer's public entry points from the benchmark's own code:
//
//   * trace replay   — a recorded MessageEvent log re-sent on a fresh
//                      Machine (fabric + scheduler, no compute);
//   * spawn          — Machine::run of an empty body;
//   * GEMM replay    — mm::gemm_accumulate over an algorithm's local block
//                      products, fanned across hardware threads;
//   * planner probe  — cold / warm GridPlanner::plan and plan_uncached.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "machine/fiber.hpp"
#include "machine/trace.hpp"
#include "planner/planner.hpp"
#include "util/matrix.hpp"

namespace perfbench {

using camb::i64;

// ---- trace replay ----------------------------------------------------------

/// One send or receive a rank performs in a replay, in global seq order.
struct ReplayOp {
  i64 bytes = 0;
  int peer = -1;
  int tag = 0;
  int phase = 0;  ///< index into ReplayPlan::phases
  bool send = false;
};

/// Per-rank op lists rebuilt from a trace.  Each rank runs its sends and
/// receives in the global send order, which cannot deadlock: the
/// lowest-seq unfinished message always has both ends ready.
struct ReplayPlan {
  int nprocs = 1;
  std::vector<std::string> phases;
  std::vector<std::vector<ReplayOp>> ops;
  i64 messages = 0;
  i64 bytes = 0;
};

/// Build the plan from a trace (any order; sorted by seq here).
ReplayPlan replay_plan(int nprocs, std::vector<camb::MessageEvent> events);
/// The sub-plan carrying only one phase's messages.
ReplayPlan phase_plan(const ReplayPlan& full, const std::string& phase);

/// Per-rank totals a replay must reproduce exactly.
struct RankCounts {
  std::vector<i64> messages_sent;
  std::vector<double> sent_words;
  std::vector<double> recv_words;
  bool operator==(const RankCounts&) const = default;
};

struct ReplayResult {
  Usage usage;                  ///< wall / CPU / faults / switches of run()
  alloc::Counts allocs;         ///< operator-new calls inside run()
  RankCounts counts;            ///< what the replay machine counted
  i64 pool_acquires = 0;        ///< summed over every rank's BufferPool
  i64 pool_reuses = 0;
};

/// Replay `plan` on a fresh Machine under `spec`.  Counts allocations when
/// `count_allocs` is set (the counter is process-wide).
ReplayResult replay(const ReplayPlan& plan, const camb::SchedulerSpec& spec,
                    std::uint64_t seed, bool count_allocs);

/// Wall seconds of Machine::run with an empty body at `nprocs`.
double spawn_seconds(int nprocs, const camb::SchedulerSpec& spec,
                     std::uint64_t seed);

// ---- GEMM replay -----------------------------------------------------------

/// The local products of a 2D block algorithm: A is cut r1 × r2, B r2 × r3,
/// and C block (I, K) accumulates A(I, J) · B(J, K) over every J — one
/// gemm_accumulate call per (I, J, K).  Algorithm 1 on grid (p1, p2, p3) is
/// (p1, p2, p3); SUMMA on a g × g grid is (g, g, g).
struct BlockProduct {
  camb::core::Shape shape;
  i64 r1 = 1, r2 = 1, r3 = 1;
};

struct GemmReplayResult {
  double seconds = 0;
  i64 calls = 0;
  double flops = 0;
  double bytes = 0;  ///< computed: 8·(mk + kn + 2mn) summed over calls
  camb::MatrixD c;   ///< the full product, assembled block by block
};

/// Time every gemm_accumulate of `bp` across `threads` threads on the
/// indexed input pattern the library's checker uses, so `c` is A·B.
GemmReplayResult gemm_replay(const BlockProduct& bp, int threads);

/// Gflop/s of gemm_accumulate at cache-resident sizes (the best of 64³,
/// 128³ and 256³), `threads` wide, over `min_seconds` in total.
double gemm_peak_gflops(int threads, double min_seconds);

// ---- planner probe ---------------------------------------------------------

struct PlannerProbe {
  std::vector<double> cold_ms;   ///< fresh planner, cleared FactorCache
  std::vector<double> warm_ns;   ///< repeated query on a warm planner
  std::vector<double> solve_ms;  ///< planner::plan_uncached
  double hit_ratio = 0;          ///< PlannerStats point hits / queries
  bool identical = true;         ///< every answer bitwise == plan_uncached
};

PlannerProbe probe_planner(const camb::planner::PlanRequest& req);

/// Bitwise equality of two plans (doubles compared by bit pattern).
bool same_bits(const camb::planner::PlanResult& a,
               const camb::planner::PlanResult& b);

}  // namespace perfbench
