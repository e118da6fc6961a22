// planner_stream.cpp — the planner_stream workload: a seeded,
// single-threaded stream of GridPlanner::plan queries, answered pass after
// pass by a freshly constructed planner with the FactorCache cleared, so
// every pass pays the cold path for every first-seen query.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "layers.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace pl = camb::planner;
using camb::i64;
using Clock = std::chrono::steady_clock;

// Stream shape.  Misses per pass (kPoolKeys + the cold keys at most) stay
// under 0.3% of kQueries, so the p99 query latency sits well inside the
// warm-hit population rather than on its boundary with the cold solves.
constexpr std::size_t kQueries = 200000;
constexpr std::size_t kPoolKeys = 512;  // Zipf-repeated (shape, P) pairs
constexpr double kZipfS = 1.1;

/// The first-seen queries' processor counts: every highly composite number
/// in [1e8, 2e10].  The cold path's cost is set by P (its divisor and
/// factor-triple tables), so the list is fixed and only the shapes and
/// positions come from the seed: every seed's pass does the same cold work.
constexpr i64 kColdP[] = {
    110270160,   122522400,   147026880,   183783600,   245044800,
    294053760,   367567200,   551350800,   698377680,   735134400,
    1102701600,  1396755360,  2095133040,  2205403200,  2327925600,
    2793510720,  3491888400,  4655851200,  5587021440,  6983776800,
    10475665200, 13967553600,
};
constexpr std::size_t kColdKeys = std::size(kColdP);

struct Stream {
  std::vector<pl::PlanRequest> keys;  ///< distinct requests
  std::vector<std::uint32_t> order;   ///< the stream, as key indices
  std::vector<char> first;            ///< order[i] first seen at i
};

camb::core::Shape random_shape(camb::Rng& rng) {
  switch (rng.below(3)) {
    case 0: {  // cube-ish: the 3D regime
      const i64 n = rng.range(64, 4096);
      return {n, std::max<i64>(1, n + rng.range(-n / 8, n / 8)), n};
    }
    case 1:  // one large dimension: the 2D regime
      return {rng.range(512, 16384), rng.range(16, 256), rng.range(16, 256)};
    default:  // extreme aspect ratio: the 1D regime
      return {rng.range(1 << 14, 1 << 20), rng.range(2, 16), rng.range(2, 16)};
  }
}

Stream make_stream(std::uint64_t seed) {
  camb::Rng rng(seed, 0x5EED);
  Stream s;
  while (s.keys.size() < kPoolKeys) {
    s.keys.push_back({random_shape(rng), rng.range(1, 8192)});
  }
  for (const i64 p : kColdP) s.keys.push_back({random_shape(rng), p});
  // Zipf over the pool by bisection on the CDF of 1/(rank+1)^s.
  std::vector<double> cdf(kPoolKeys);
  double total = 0;
  for (std::size_t i = 0; i < kPoolKeys; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
    cdf[i] = total;
  }
  s.order.reserve(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    const double u = total * rng.uniform();
    const auto at = std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
    s.order.push_back(static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(at, kPoolKeys - 1)));
  }
  // One cold query in each of kColdKeys equal slices, at a seeded offset.
  const std::size_t slice = kQueries / kColdKeys;
  for (std::size_t c = 0; c < kColdKeys; ++c) {
    s.order[c * slice + rng.below(slice)] =
        static_cast<std::uint32_t>(kPoolKeys + c);
  }
  std::vector<char> seen(s.keys.size(), 0);
  s.first.resize(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    s.first[i] = seen[s.order[i]] ? 0 : 1;
    seen[s.order[i]] = 1;
  }
  return s;
}

struct Pass {
  Usage usage;
  std::vector<pl::PlanResult> answers;
  std::vector<double> latency_ns;
  pl::PlannerStats stats;
  alloc::Counts allocs;
};

/// One pass: a new planner over a cleared FactorCache answers the stream.
/// The pass wall covers planner construction and every query.
Pass run_pass(const Stream& s, bool count_allocs) {
  Pass pass;
  pass.answers.resize(kQueries);
  pass.latency_ns.resize(kQueries);
  pl::FactorCache::instance().clear();
  alloc::set_counting(count_allocs);
  const alloc::Counts a0 = alloc::read();
  const Usage u0 = usage_now();
  {
    pl::GridPlanner planner;
    for (std::size_t i = 0; i < kQueries; ++i) {
      const auto t0 = Clock::now();
      pass.answers[i] = planner.plan(s.keys[s.order[i]]);
      pass.latency_ns[i] =
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    }
    pass.usage = usage_delta(u0, usage_now());
    pass.allocs = alloc::delta(a0, alloc::read());
    alloc::set_counting(false);
    pass.stats = planner.stats();
  }
  const double clock_ns = clock_read_ns();
  for (double& ns : pass.latency_ns) ns -= clock_ns;
  return pass;
}

/// Every answer of a pass against the memo-free oracle, bit for bit.
void check_pass(const Stream& s, const std::vector<pl::PlanResult>& oracle,
                const Pass& pass, Outcome& out) {
  for (std::size_t i = 0; i < kQueries; ++i) {
    const std::uint32_t key = s.order[i];
    if (same_bits(pass.answers[i], oracle[key])) {
      out.check({});
      continue;
    }
    const pl::PlanRequest& q = s.keys[key];
    out.check({"planner query " + std::to_string(i) + " (" +
               std::to_string(q.shape.n1) + "x" + std::to_string(q.shape.n2) +
               "x" + std::to_string(q.shape.n3) + ", P=" +
               std::to_string(q.P) + ") differs from plan_uncached"});
  }
}

}  // namespace

Outcome run_planner_stream(const Settings& settings) {
  Outcome out;
  const Stream stream = make_stream(settings.seed);
  // The cold first pass of the process is the set-up sample; the oracle is
  // built after it so nothing warms the process before it runs.
  Pass setup = run_pass(stream, false);
  std::vector<pl::PlanResult> oracle;
  std::vector<double> solve_ms;
  for (const pl::PlanRequest& req : stream.keys) {
    const auto t0 = Clock::now();
    oracle.push_back(pl::plan_uncached(req));
    solve_ms.push_back(seconds_since(t0) * 1e3);
  }
  if (settings.corrupt_answer) setup.answers[0].grid.p1 += 1;
  check_pass(stream, oracle, setup, out);

  if (!settings.trace) {
    std::vector<double> wall, cpu, p99_ns;
    const auto t0 = Clock::now();
    while (wall.empty() || seconds_since(t0) < settings.seconds) {
      const Pass pass = run_pass(stream, false);
      check_pass(stream, oracle, pass, out);
      wall.push_back(pass.usage.wall_s);
      cpu.push_back(pass.usage.cpu_s);
      p99_ns.push_back(quantile(pass.latency_ns, 0.99));
    }
    const long n = static_cast<long>(wall.size());
    const double wall_s = median(wall);
    std::printf("pass wall_s:");
    for (double w : wall) std::printf(" %.4f", w);
    std::printf("\n");
    out.set("wall_s", wall_s, "s", n);
    out.set("cpu_s", median(cpu), "s", n);
    out.set("setup_s", setup.usage.wall_s, "s", 1);
    out.set("peak_rss_mb",
            static_cast<double>(usage_now().max_rss_kb) / 1024.0, "MB", 1);
    // p99 per pass (kQueries samples each), median over the passes.
    out.extras.push_back(
        {"plan_qps", static_cast<double>(kQueries) / wall_s, "1/s", n});
    out.extras.push_back({"plan_p99_us", median(p99_ns) / 1e3, "us", n});
    return out;
  }

  // Traced run: the executed layers are probed on the smallest executed
  // problem (this workload runs none), then the planner layers below
  // replace that probe's planner figures with the stream's own.
  Settings tiny = settings;
  tiny.corrupt_answer = false;
  const Outcome layers = run_executed(
      {"grid3d_optimal", {1, 1, 1}, 1, camb::mm::VerifyMode::kFreivalds},
      tiny);
  out.metrics = layers.metrics;
  out.attempted += layers.attempted;
  out.failed += layers.failed;
  out.failures.insert(out.failures.end(), layers.failures.begin(),
                      layers.failures.end());

  // Untraced reference: the median of three passes, the first with the
  // allocation counter on.
  const Pass ref = run_pass(stream, true);
  check_pass(stream, oracle, ref, out);
  std::vector<double> ref_wall = {ref.usage.wall_s};
  for (int rep = 0; rep < 2; ++rep) {
    const Pass again = run_pass(stream, false);
    check_pass(stream, oracle, again, out);
    ref_wall.push_back(again.usage.wall_s);
  }
  const Pass tr = run_pass(stream, false);
  check_pass(stream, oracle, tr, out);
  std::vector<double> cold_ms, warm_ns;
  for (std::size_t i = 0; i < kQueries; ++i) {
    if (stream.first[i]) {
      cold_ms.push_back(tr.latency_ns[i] / 1e6);
    } else {
      warm_ns.push_back(tr.latency_ns[i]);
    }
  }
  const double in_planner_s =
      std::accumulate(tr.latency_ns.begin(), tr.latency_ns.end(), 0.0) / 1e9;
  const double queries =
      static_cast<double>(tr.stats.point.hits + tr.stats.point.misses);
  const long cold_n = static_cast<long>(cold_ms.size());
  const long warm_n = static_cast<long>(warm_ns.size());
  out.set("planner.cold_ms_p50", median(cold_ms), "ms", cold_n);
  out.set("planner.cold_ms_max", quantile(cold_ms, 1.0), "ms", cold_n);
  out.set("planner.warm_ns_p50", median(warm_ns), "ns", warm_n);
  out.set("planner.warm_ns_p99", quantile(warm_ns, 0.99), "ns", warm_n);
  out.set("planner.hit_ratio",
          queries > 0 ? static_cast<double>(tr.stats.point.hits) / queries : 0,
          "ratio", static_cast<long>(queries));
  out.set("planner.exec_share", in_planner_s / tr.usage.wall_s, "ratio");
  out.set("core.solve_ms_p50", median(solve_ms), "ms",
          static_cast<long>(solve_ms.size()));
  out.set("runner.unattributed_s", tr.usage.wall_s - in_planner_s, "s");
  out.set("trace.overhead_frac", tr.usage.wall_s / median(ref_wall) - 1.0,
          "ratio", 3);
  out.set("verify.share", 0.0, "ratio");
  out.set("proc.allocs", static_cast<double>(ref.allocs.allocs), "count");
  out.set("proc.alloc_bytes", static_cast<double>(ref.allocs.bytes), "bytes");
  out.set("proc.minor_faults", static_cast<double>(ref.usage.minor_faults),
          "count");
  return out;
}

}  // namespace perfbench
