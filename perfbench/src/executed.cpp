// executed.cpp — the executed workloads (summa_p16k_msgs, grid3d_p64_gemm):
// timed iterations through the algorithm registry with every answer
// checked, and the traced run that attributes an iteration to its layers.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <thread>

#include "layers.hpp"
#include "matmul/algorithm_registry.hpp"
#include "matmul/freivalds.hpp"
#include "planner/planner.hpp"
#include "util/math.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using camb::mm::RunOptions;
using camb::mm::RunReport;
using camb::mm::VerifyMode;

/// The algorithm phases whose traffic the traced run replays one by one.
const char* const kReplayedPhases[] = {
    camb::mm::kPhaseSummaBcastA, camb::mm::kPhaseSummaBcastB,
    camb::mm::kPhaseAllgatherA,  camb::mm::kPhaseAllgatherB,
    camb::mm::kPhaseReduceScatterC,
};

/// Point queries answered by the process-wide planner so far.
std::uint64_t planner_queries() {
  const auto stats = camb::planner::GridPlanner::instance().stats();
  return stats.point.hits + stats.point.misses;
}

RankCounts counts_of(const RunReport& r) {
  return {r.rank_messages, r.rank_sent_words, r.rank_recv_words};
}

/// One failure reason when `wrong`, none otherwise.
std::vector<std::string> reasons_if(bool wrong, const std::string& why) {
  return wrong ? std::vector<std::string>{why} : std::vector<std::string>{};
}

struct Iteration {
  RunReport report;
  Usage usage;
  alloc::Counts allocs;
  std::uint64_t planner_queries = 0;
};

/// One workload iteration through the registry's public entry point.
class IterationRunner {
 public:
  IterationRunner(const ExecSpec& spec, const Settings& settings)
      : spec_(spec), info_(camb::mm::algorithm_by_name(spec.algorithm)) {
    CAMB_CHECK_MSG(info_.supports(spec.shape, spec.nprocs),
                   spec.algorithm + " cannot run this (shape, P)");
    opts_.verify = spec.verify;
    opts_.scheduler.kind = camb::SchedulerKind::kFibers;
    opts_.perturb.master_seed = settings.seed;
  }

  Iteration run(bool trace, bool count_allocs) const {
    RunOptions opts = opts_;
    opts.collect_trace = trace;
    Iteration it;
    const std::uint64_t q0 = planner_queries();
    alloc::set_counting(count_allocs);
    const alloc::Counts a0 = alloc::read();
    const Usage u0 = usage_now();
    it.report = info_.run_opts(spec_.shape, spec_.nprocs, opts);
    it.usage = usage_delta(u0, usage_now());
    it.allocs = alloc::delta(a0, alloc::read());
    alloc::set_counting(false);
    it.planner_queries = planner_queries() - q0;
    return it;
  }

  const RunOptions& options() const { return opts_; }

 private:
  const ExecSpec& spec_;
  const camb::mm::AlgorithmInfo& info_;
  RunOptions opts_;
};

/// The correctness gate for one iteration: exact words, per-rank counts
/// equal to the untraced baseline, and the Freivalds residual in bounds.
std::vector<std::string> check_iteration(const RunReport& r,
                                         const RankCounts* baseline,
                                         VerifyMode verify,
                                         const std::string& label) {
  std::vector<std::string> reasons;
  const double predicted = r.predicted_words();
  if (predicted < 0 || r.measured_critical_recv != predicted) {
    reasons.push_back(label + ": measured " +
                      full_digits(r.measured_critical_recv) +
                      " critical-path words, predicted " +
                      full_digits(predicted));
  }
  if (baseline != nullptr && counts_of(r) != *baseline) {
    reasons.push_back(label +
                      ": per-rank message/word counts differ from the "
                      "untraced baseline");
  }
  if (verify == VerifyMode::kFreivalds &&
      !(r.verified &&
        r.max_abs_error <= camb::mm::freivalds_default_tol<double>())) {
    reasons.push_back(label + ": Freivalds residual " +
                      full_digits(r.max_abs_error) + " exceeds " +
                      full_digits(camb::mm::freivalds_default_tol<double>()));
  }
  return reasons;
}

/// The local products the algorithm's ranks perform.
BlockProduct block_product(const ExecSpec& spec) {
  if (spec.algorithm == "summa") {
    const camb::i64 g = camb::isqrt(spec.nprocs);
    return {spec.shape, g, g, g};
  }
  const camb::core::Grid3 grid =
      camb::planner::GridPlanner::instance()
          .plan({spec.shape, spec.nprocs})
          .grid;
  return {spec.shape, grid.p1, grid.p2, grid.p3};
}

void untraced(const IterationRunner& runner, const ExecSpec& spec,
              const Settings& settings, const Iteration& setup,
              const RankCounts& baseline, Outcome& out) {
  std::vector<double> wall, cpu;
  const auto t0 = std::chrono::steady_clock::now();
  while (wall.empty() || seconds_since(t0) < settings.seconds) {
    const Iteration it = runner.run(false, false);
    out.check(check_iteration(it.report, &baseline, spec.verify,
                              "iteration " + std::to_string(wall.size() + 1)));
    wall.push_back(it.usage.wall_s);
    cpu.push_back(it.usage.cpu_s);
  }
  const long n = static_cast<long>(wall.size());
  const double wall_s = median(wall);
  std::printf("iteration wall_s:");
  for (double w : wall) std::printf(" %.4f", w);
  std::printf("\n");
  out.set("wall_s", wall_s, "s", n);
  out.set("cpu_s", median(cpu), "s", n);
  out.set("setup_s", setup.usage.wall_s, "s", 1);
  out.set("peak_rss_mb", static_cast<double>(usage_now().max_rss_kb) / 1024.0,
          "MB", 1);
  const double msgs = static_cast<double>(std::accumulate(
      baseline.messages_sent.begin(), baseline.messages_sent.end(),
      camb::i64{0}));
  out.extras.push_back({"msgs_per_s", msgs / wall_s, "1/s", n});
  out.extras.push_back({"gflops",
                        2.0 * static_cast<double>(spec.shape.flops()) /
                            wall_s / 1e9,
                        "Gflop/s", n});
}

void traced(const IterationRunner& runner, const ExecSpec& spec,
            const Settings& settings, const RankCounts& baseline,
            Outcome& out) {
  const camb::SchedulerSpec& sched = runner.options().scheduler;
  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  // Two untraced reference iterations (the first with the allocation
  // counter on), then the traced iteration whose message log the replays
  // below re-send.
  const Iteration ref = runner.run(false, true);
  out.check(check_iteration(ref.report, &baseline, spec.verify,
                            "untraced reference iteration 1"));
  const Iteration ref2 = runner.run(false, false);
  out.check(check_iteration(ref2.report, &baseline, spec.verify,
                            "untraced reference iteration 2"));
  const double wall_ref = median({ref.usage.wall_s, ref2.usage.wall_s});
  Iteration tr = runner.run(true, false);
  out.check(check_iteration(tr.report, &baseline, spec.verify,
                            "traced iteration"));
  const RankCounts traced_counts = counts_of(tr.report);
  out.set("trace.overhead_frac", tr.usage.wall_s / wall_ref - 1.0, "ratio",
          2);
  out.set("proc.allocs", static_cast<double>(ref.allocs.allocs), "count");
  out.set("proc.alloc_bytes", static_cast<double>(ref.allocs.bytes), "bytes");
  out.set("proc.minor_faults", static_cast<double>(ref.usage.minor_faults),
          "count");

  // Fabric + scheduler: the whole log replayed on a fresh machine.
  double fabric_s = 0;
  {
    const ReplayPlan plan = replay_plan(static_cast<int>(spec.nprocs),
                                        std::move(tr.report.trace_events));
    const ReplayResult full = replay(plan, sched, settings.seed, true);
    out.check(reasons_if(full.counts != traced_counts,
                         "trace replay: per-rank message/byte counts differ "
                         "from the traced run"));
    const double msgs = static_cast<double>(plan.messages);
    const double per_msg = std::max(msgs, 1.0);
    fabric_s = full.usage.wall_s;
    out.set("fabric.msgs", msgs, "count");
    out.set("fabric.bytes", static_cast<double>(plan.bytes), "bytes");
    out.set("fabric.replay_s", fabric_s, "s");
    out.set("fabric.ns_per_msg", fabric_s * 1e9 / per_msg, "ns");
    out.set("fabric.replay_cpu_s", full.usage.cpu_s, "s");
    out.set("fabric.allocs_per_msg",
            static_cast<double>(full.allocs.allocs) / per_msg, "count");
    out.set("scheduler.cpu_per_wall", full.usage.cpu_s / fabric_s, "ratio");
    out.set("scheduler.vol_csw", static_cast<double>(full.usage.vol_csw),
            "count");
    out.set("scheduler.invol_csw", static_cast<double>(full.usage.invol_csw),
            "count");
    out.set("buffer_pool.acquires", static_cast<double>(full.pool_acquires),
            "count");
    out.set("buffer_pool.reuse_ratio",
            full.pool_acquires > 0 ? static_cast<double>(full.pool_reuses) /
                                         static_cast<double>(full.pool_acquires)
                                   : 0.0,
            "ratio");

    // Collectives: the same replay restricted to one phase at a time.
    for (const char* phase : kReplayedPhases) {
      const ReplayPlan sub = phase_plan(plan, phase);
      const ReplayResult r = replay(sub, sched, settings.seed, false);
      const camb::i64 sent = std::accumulate(r.counts.messages_sent.begin(),
                                             r.counts.messages_sent.end(),
                                             camb::i64{0});
      out.check(reasons_if(sent != sub.messages,
                           std::string("phase replay ") + phase + ": sent " +
                               std::to_string(sent) +
                               " messages, trace holds " +
                               std::to_string(sub.messages)));
      const std::string key = std::string("collectives.") + phase;
      out.set(key + ".msgs", static_cast<double>(sub.messages), "count");
      out.set(key + ".bytes", static_cast<double>(sub.bytes), "bytes");
      out.set(key + ".replay_s", r.usage.wall_s, "s");
    }
  }

  constexpr int kSpawnReps = 3;
  std::vector<double> spawn;
  for (int rep = 0; rep < kSpawnReps; ++rep) {
    spawn.push_back(spawn_seconds(static_cast<int>(spec.nprocs), sched,
                                  settings.seed));
  }
  out.set("scheduler.spawn_s", median(spawn), "s", kSpawnReps);

  // GEMM: the algorithm's local products, then the checker on their sum.
  const GemmReplayResult gemm = gemm_replay(block_product(spec), threads);
  const double want_flops = 2.0 * static_cast<double>(spec.shape.flops());
  const auto v0 = std::chrono::steady_clock::now();
  const double residual =
      camb::mm::check_result(spec.shape, gemm.c, VerifyMode::kFreivalds);
  const double verify_s = seconds_since(v0);
  std::vector<std::string> gemm_reasons;
  if (gemm.flops != want_flops) {
    gemm_reasons.push_back("GEMM replay: " + full_digits(gemm.flops) +
                           " flops, the product needs " +
                           full_digits(want_flops));
  }
  if (!(residual <= camb::mm::freivalds_default_tol<double>())) {
    gemm_reasons.push_back("GEMM replay: assembled product fails Freivalds "
                           "(residual " + full_digits(residual) + ")");
  }
  out.check(gemm_reasons);
  const double peak = gemm_peak_gflops(threads, 0.3);
  const double gemm_gflops = gemm.flops / gemm.seconds / 1e9;
  out.set("gemm.calls", static_cast<double>(gemm.calls), "count");
  out.set("gemm.flops", gemm.flops, "flop");
  out.set("gemm.flops_per_byte", gemm.flops / gemm.bytes, "flop/B");
  out.set("gemm.s", gemm.seconds, "s");
  out.set("gemm.gflops", gemm_gflops, "Gflop/s");
  out.set("gemm.peak_gflops", peak, "Gflop/s");
  out.set("gemm.frac_of_peak", gemm_gflops / peak, "ratio");
  const bool verifies = spec.verify != VerifyMode::kNone;
  out.set("verify.s", verify_s, "s");
  out.set("verify.share", verifies ? verify_s / wall_ref : 0.0, "ratio", 2);

  // Planner + core at this workload's query.
  const PlannerProbe probe = probe_planner({spec.shape, spec.nprocs});
  out.check(reasons_if(!probe.identical,
                       "planner answer differs from plan_uncached"));
  const double warm_p50_ns = median(probe.warm_ns);
  const double planner_s =
      static_cast<double>(ref.planner_queries) * warm_p50_ns * 1e-9;
  const long cold_n = static_cast<long>(probe.cold_ms.size());
  const long warm_n = static_cast<long>(probe.warm_ns.size());
  out.set("planner.cold_ms_p50", median(probe.cold_ms), "ms", cold_n);
  out.set("planner.cold_ms_max", quantile(probe.cold_ms, 1.0), "ms", cold_n);
  out.set("planner.warm_ns_p50", warm_p50_ns, "ns", warm_n);
  out.set("planner.warm_ns_p99", quantile(probe.warm_ns, 0.99), "ns", warm_n);
  out.set("planner.hit_ratio", probe.hit_ratio, "ratio", warm_n);
  out.set("planner.exec_share", planner_s / wall_ref, "ratio", 2);
  out.set("core.solve_ms_p50", median(probe.solve_ms), "ms",
          static_cast<long>(probe.solve_ms.size()));

  out.set("runner.unattributed_s",
          wall_ref - (fabric_s + gemm.seconds + (verifies ? verify_s : 0.0) +
                      planner_s),
          "s", 2);
}

}  // namespace

Outcome run_executed(const ExecSpec& spec, const Settings& settings) {
  Outcome out;
  const IterationRunner runner(spec, settings);
  // The cold first iteration of the process: set-up time, and the exact
  // per-rank counts every later iteration must reproduce.
  Iteration setup = runner.run(false, false);
  if (settings.corrupt_answer) setup.report.measured_critical_recv += 1;
  out.check(check_iteration(setup.report, nullptr, spec.verify,
                            "setup iteration"));
  const RankCounts baseline = counts_of(setup.report);
  if (settings.trace) {
    traced(runner, spec, settings, baseline, out);
  } else {
    untraced(runner, spec, settings, setup, baseline, out);
  }
  return out;
}

}  // namespace perfbench
