// bench_planner_qps — throughput, tail latency, and bit-exactness of the
// grid-planner query engine (src/planner) against the uncached analytic
// path it memoizes.
//
// Methodology.  A seeded pool of (shape, P) combinations drives three query
// mixes against the long-lived GridPlanner:
//
//   * repeated — 8 hot combinations cycled (a scheduler re-planning the
//     same jobs; the pure cache-hit regime);
//   * zipf     — pool sampled with Zipf(s = 1.1) skew (production traffic:
//     a few hot shapes, a long tail);
//   * uniform  — pool sampled uniformly (the adversarial mix: every combo
//     equally likely, hit rate = warm-pool rate).
//
// Throughput is wall-clocked over a warm pass (the service is long-lived,
// so steady-state is the honest regime); p50/p99/p999 come from a separate
// per-query-timed pass over the same stream, so timer overhead (~40 ns on
// this VM class) taxes the percentiles but not the qps.  The uncached
// baseline runs plan_uncached — full factor-triple enumeration plus the
// Theorem 3 derivation per query — over the same stream, interleaved after
// the cached pass so clock drift cannot favor the cache.  Multi-thread
// scaling drives T plain threads over disjoint slices (reported, not
// asserted: CI runners pin this VM class to one core).
//
// Exactness gate (this binary exits nonzero on ANY miss):
//   * every pool combination: plan() vs plan_uncached() vs the raw core
//     calls (best_integer_grid / memory_independent_bound /
//     optimal_grid_real), field-for-field, bitwise;
//   * a randomized sweep of fresh (shape, P) queries, cold then cached;
//   * plan_batch vs per-query plan(); plan_sweep vs raw core per point;
//   * best_integer_grid_at_most vs core::best_integer_grid_at_most.
// The full-mode run also asserts the repeated-mix speedup >= 10x (quick
// mode >= 2x: sanitizer and smoke legs run on loaded machines).
//
// Usage: bench_planner_qps [--quick] [--out PATH]
//   --quick  cut query counts ~10x (the CI smoke configuration)
//   --out    write the JSON report to PATH (default: BENCH_PR10.json)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/bounds.hpp"
#include "core/cost_eq3.hpp"
#include "core/grid.hpp"
#include "planner/planner.hpp"

namespace {

using namespace camb;
using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Deterministic splitmix64 stream (no global RNG state, stable across
/// platforms, immune to seed drift).
struct Rng {
  std::uint64_t state;

  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t x = state;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  i64 range(i64 lo, i64 hi) {  // inclusive
    return lo + static_cast<i64>(next() %
                                 static_cast<std::uint64_t>(hi - lo + 1));
  }
};

/// The seeded combination pool: shape families spanning the paper's three
/// regimes (cubes for 3D, one large dimension for 2D/1D) crossed with
/// processor counts of every factorization character (powers of two,
/// smooth composites, primes).
std::vector<planner::PlanRequest> make_pool(std::size_t count, Rng& rng) {
  std::vector<planner::PlanRequest> pool;
  pool.reserve(count);
  while (pool.size() < count) {
    core::Shape shape;
    switch (rng.next() % 4) {
      case 0: {  // cube-ish (3D regime)
        const i64 n = rng.range(64, 4096);
        shape = {n, std::max<i64>(1, n + rng.range(-n / 8, n / 8)), n};
        break;
      }
      case 1: {  // one large dimension (2D regime)
        const i64 n = rng.range(512, 16384);
        shape = {n, rng.range(16, 256), rng.range(16, 256)};
        break;
      }
      case 2: {  // extreme aspect ratio (1D regime)
        shape = {rng.range(1 << 14, 1 << 20), rng.range(2, 16),
                 rng.range(2, 16)};
        break;
      }
      default: {  // paper-style 16a x 4a x a
        const i64 a = rng.range(50, 800);
        shape = {16 * a, 4 * a, a};
        break;
      }
    }
    i64 P = 1;
    switch (rng.next() % 3) {
      case 0:  // power of two
        P = i64{1} << rng.range(0, 13);
        break;
      case 1:  // smooth composite
        P = rng.range(1, 8) * rng.range(1, 8) * rng.range(1, 8) *
            rng.range(1, 8);
        break;
      default:  // arbitrary (primes included)
        P = rng.range(1, 8192);
        break;
    }
    pool.push_back({shape, P});
  }
  return pool;
}

/// Query stream: indices into the pool under one of the three mixes.
std::vector<std::size_t> make_stream(const std::string& mix,
                                     std::size_t pool_size, std::size_t count,
                                     Rng& rng) {
  std::vector<std::size_t> stream;
  stream.reserve(count);
  if (mix == "repeated") {
    const std::size_t hot = std::min<std::size_t>(8, pool_size);
    for (std::size_t i = 0; i < count; ++i) stream.push_back(i % hot);
    return stream;
  }
  if (mix == "zipf") {
    // CDF of weight 1/(rank+1)^1.1 over pool order, sampled by bisection.
    std::vector<double> cdf(pool_size);
    double total = 0;
    for (std::size_t i = 0; i < pool_size; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
      cdf[i] = total;
    }
    for (std::size_t i = 0; i < count; ++i) {
      const double u =
          total * static_cast<double>(rng.next() >> 11) / 9007199254740992.0;
      stream.push_back(static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
    }
    return stream;
  }
  for (std::size_t i = 0; i < count; ++i) {
    stream.push_back(rng.next() % pool_size);
  }
  return stream;
}

struct MixResult {
  std::string mix;
  std::size_t queries = 0;
  double qps = 0;
  double ns_p50 = 0, ns_p99 = 0, ns_p999 = 0;
  double uncached_ns = 0;
  double speedup = 0;
};

MixResult bench_mix(const std::string& mix,
                    const std::vector<planner::PlanRequest>& pool,
                    const std::vector<std::size_t>& stream,
                    std::size_t baseline_queries) {
  planner::GridPlanner& service = planner::GridPlanner::instance();
  MixResult out;
  out.mix = mix;
  out.queries = stream.size();

  // Keeps the optimizer honest.  Plain `=`: C++20 deprecates compound
  // assignment to a volatile.
  volatile double sink = 0;
  // Warm pass (fills the caches the long-lived service would hold), then
  // the wall-clocked throughput pass.
  for (const std::size_t i : stream) {
    sink = sink + service.plan(pool[i]).cost_words;
  }
  const auto t0 = Clock::now();
  for (const std::size_t i : stream) {
    sink = sink + service.plan(pool[i]).cost_words;
  }
  const auto t1 = Clock::now();
  out.qps = static_cast<double>(stream.size()) / secs(t0, t1);

  // Per-query-timed pass for the tail.
  std::vector<double> ns(stream.size());
  for (std::size_t q = 0; q < stream.size(); ++q) {
    const auto a = Clock::now();
    sink = sink + service.plan(pool[stream[q]]).cost_words;
    const auto b = Clock::now();
    ns[q] = secs(a, b) * 1e9;
  }
  const auto pct = [&ns](double p) {
    const std::size_t idx = std::min(
        ns.size() - 1, static_cast<std::size_t>(p * static_cast<double>(
                                                        ns.size() - 1)));
    std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(idx),
                     ns.end());
    return ns[idx];
  };
  out.ns_p50 = pct(0.50);
  out.ns_p99 = pct(0.99);
  out.ns_p999 = pct(0.999);

  // Uncached baseline over the same stream (prefix), interleaved after the
  // cached pass so drift taxes both sides.
  const std::size_t nb = std::min(baseline_queries, stream.size());
  const auto b0 = Clock::now();
  for (std::size_t q = 0; q < nb; ++q) {
    sink = sink + planner::plan_uncached(pool[stream[q]]).cost_words;
  }
  const auto b1 = Clock::now();
  out.uncached_ns = secs(b0, b1) * 1e9 / static_cast<double>(nb);
  out.speedup = out.uncached_ns / (1e9 / out.qps);
  (void)sink;
  return out;
}

/// Aggregate qps with T plain threads sharing the warmed service, each on
/// its own slice of the stream.
double bench_threads(int threads, const std::vector<planner::PlanRequest>& pool,
                     const std::vector<std::size_t>& stream) {
  planner::GridPlanner& service = planner::GridPlanner::instance();
  std::vector<std::thread> team;
  team.reserve(static_cast<std::size_t>(threads));
  const auto t0 = Clock::now();
  for (int t = 0; t < threads; ++t) {
    team.emplace_back([&, t] {
      volatile double sink = 0;
      const std::size_t begin = stream.size() * static_cast<std::size_t>(t) /
                                static_cast<std::size_t>(threads);
      const std::size_t end = stream.size() *
                              static_cast<std::size_t>(t + 1) /
                              static_cast<std::size_t>(threads);
      for (std::size_t q = begin; q < end; ++q) {
        sink = sink + service.plan(pool[stream[q]]).cost_words;
      }
      (void)sink;
    });
  }
  for (std::thread& th : team) th.join();
  const auto t1 = Clock::now();
  return static_cast<double>(stream.size()) / secs(t0, t1);
}

/// Field-for-field bitwise comparison against the raw core calls.
bool matches_core(const planner::PlanRequest& req,
                  const planner::PlanResult& got) {
  const planner::PlanResult oracle = planner::plan_uncached(req);
  if (!(got == oracle)) return false;
  if (got.grid != core::best_integer_grid(req.shape, req.P)) return false;
  const core::BoundResult bound =
      core::memory_independent_bound(req.shape, static_cast<double>(req.P));
  if (got.regime != bound.regime || got.bound_words != bound.words) {
    return false;
  }
  const core::SortedDims d = core::sort_dims(req.shape);
  const core::RealGrid real = core::optimal_grid_real(
      static_cast<double>(d.m), static_cast<double>(d.n),
      static_cast<double>(d.k), static_cast<double>(req.P));
  return got.real == real;
}

struct Exactness {
  std::size_t checked = 0;
  std::size_t mismatches = 0;

  void tally(bool ok) {
    ++checked;
    if (!ok) ++mismatches;
  }
};

Exactness verify_exactness(const std::vector<planner::PlanRequest>& pool,
                           std::size_t random_queries, Rng& rng) {
  planner::GridPlanner& service = planner::GridPlanner::instance();
  Exactness ex;

  // Every pool combination: warm answer vs uncached vs raw core.
  for (const planner::PlanRequest& req : pool) {
    ex.tally(matches_core(req, service.plan(req)));
  }

  // Randomized fresh queries: cold answer, then the cached replay.
  for (std::size_t i = 0; i < random_queries; ++i) {
    const core::Shape shape{rng.range(1, 4096), rng.range(1, 4096),
                            rng.range(1, 4096)};
    const planner::PlanRequest req{shape, rng.range(1, 4096)};
    const planner::PlanResult cold = service.plan(req);
    ex.tally(matches_core(req, cold));
    ex.tally(service.plan(req) == cold);
  }

  // Batch vs per-query (with duplicates so the dedup path is exercised).
  {
    std::vector<planner::PlanRequest> batch;
    for (std::size_t i = 0; i < 256; ++i) {
      batch.push_back(pool[rng.next() % std::min<std::size_t>(64,
                                                              pool.size())]);
    }
    const std::vector<planner::PlanResult> results =
        service.plan_batch(batch, 4);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ex.tally(results[i] == service.plan(batch[i]));
    }
  }

  // Sweep vs raw core per point.
  {
    const core::Shape shape{9600, 2400, 600};
    std::vector<i64> counts;
    for (i64 P = 1; P <= 4096; P *= 2) counts.push_back(P);
    const planner::SweepResult sweep = service.plan_sweep(shape, counts);
    for (const planner::SweepPoint& pt : sweep.points) {
      const core::BoundResult bound =
          core::memory_independent_bound(shape, static_cast<double>(pt.P));
      ex.tally(pt.regime == bound.regime && pt.bound_words == bound.words &&
               pt.grid == core::best_integer_grid(shape, pt.P));
    }
  }

  // Elastic at-most re-planning vs the memo-free core search.
  for (const i64 max_procs : {1, 2, 17, 96, 255}) {
    const core::Shape shape{384, 96, 24};
    ex.tally(service.best_integer_grid_at_most(shape, max_procs) ==
             core::best_integer_grid_at_most(shape, max_procs));
  }
  return ex;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_PR10.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_planner_qps [--quick] [--out PATH]\n");
      return 2;
    }
  }

  const std::size_t pool_size = quick ? 128 : 512;
  const std::size_t queries = quick ? 20000 : 200000;
  const std::size_t baseline_queries = quick ? 300 : 2000;
  const std::size_t random_checks = quick ? 1000 : 10000;
  const double required_speedup = quick ? 2.0 : 10.0;

  Rng rng{0x5EEDC0DE2026ULL};
  const std::vector<planner::PlanRequest> pool = make_pool(pool_size, rng);

  std::printf("bench_planner_qps (%s mode): pool of %zu (shape, P) combos\n\n",
              quick ? "quick" : "full", pool.size());

  std::vector<MixResult> mixes;
  for (const char* mix : {"repeated", "zipf", "uniform"}) {
    const std::vector<std::size_t> stream =
        make_stream(mix, pool.size(), queries, rng);
    mixes.push_back(bench_mix(mix, pool, stream, baseline_queries));
    const MixResult& m = mixes.back();
    std::printf("%-9s %9.0f qps   p50 %6.0f ns  p99 %7.0f ns  p999 %8.0f ns"
                "   uncached %8.0f ns/q   speedup %7.1fx\n",
                m.mix.c_str(), m.qps, m.ns_p50, m.ns_p99, m.ns_p999,
                m.uncached_ns, m.speedup);
  }

  // Batched API throughput (uniform mix with duplicates).
  double batch_qps = 0;
  double dedup_fraction = 0;
  {
    Rng brng{0xBA7C4ED5ULL};
    const std::vector<std::size_t> stream =
        make_stream("zipf", pool.size(), quick ? 20000 : 100000, brng);
    std::vector<planner::PlanRequest> batch;
    batch.reserve(stream.size());
    for (const std::size_t i : stream) batch.push_back(pool[i]);
    const planner::PlannerStats before =
        planner::GridPlanner::instance().stats();
    const auto t0 = Clock::now();
    const std::vector<planner::PlanResult> results =
        planner::GridPlanner::instance().plan_batch(batch);
    const auto t1 = Clock::now();
    const planner::PlannerStats after =
        planner::GridPlanner::instance().stats();
    batch_qps = static_cast<double>(results.size()) / secs(t0, t1);
    dedup_fraction =
        static_cast<double>(after.batch_deduped - before.batch_deduped) /
        static_cast<double>(batch.size());
    std::printf("\nplan_batch %9.0f qps  (%.1f%% answered by dedup)\n",
                batch_qps, 100.0 * dedup_fraction);
  }

  // Multi-thread scaling (reported, not asserted: CI pins one core).
  struct ScalePoint {
    int threads;
    double qps;
  };
  std::vector<ScalePoint> scaling;
  {
    Rng srng{0x7EA27115ULL};
    const std::vector<std::size_t> stream =
        make_stream("zipf", pool.size(), quick ? 40000 : 200000, srng);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    for (int t = 1; t <= static_cast<int>(std::min(8u, hw * 2)); t *= 2) {
      scaling.push_back({t, bench_threads(t, pool, stream)});
      std::printf("threads %d %9.0f qps\n", t, scaling.back().qps);
    }
  }

  Rng xrng{0xE84C7ULL};
  const Exactness ex = verify_exactness(pool, random_checks, xrng);
  std::printf("\nexactness: %zu checks, %zu mismatches\n", ex.checked,
              ex.mismatches);

  const planner::PlannerStats stats = planner::GridPlanner::instance().stats();

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"planner_qps\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(f,
               "  \"methodology\": \"warm-pass wall-clock qps + per-query "
               "percentiles per mix; uncached baseline = plan_uncached over "
               "the same stream, run interleaved after the cached pass; "
               "multi-thread points are plain threads over disjoint slices "
               "(reported only: this VM class has one core); every answer "
               "is bitwise-checked against the memo-free core path\",\n");
  std::fprintf(f, "  \"pool\": %zu,\n", pool.size());
  std::fprintf(f, "  \"mixes\": [\n");
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    const MixResult& m = mixes[i];
    std::fprintf(f,
                 "    {\"mix\": \"%s\", \"queries\": %zu, \"qps\": %.0f, "
                 "\"ns_p50\": %.0f, \"ns_p99\": %.0f, \"ns_p999\": %.0f, "
                 "\"uncached_ns\": %.0f, \"speedup\": %.2f}%s\n",
                 m.mix.c_str(), m.queries, m.qps, m.ns_p50, m.ns_p99,
                 m.ns_p999, m.uncached_ns, m.speedup,
                 i + 1 < mixes.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"batch\": {\"qps\": %.0f, \"dedup_fraction\": %.4f},\n",
               batch_qps, dedup_fraction);
  std::fprintf(f, "  \"scaling\": [\n");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    std::fprintf(f, "    {\"threads\": %d, \"qps\": %.0f}%s\n",
                 scaling[i].threads, scaling[i].qps,
                 i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"cache\": {\"point_hits\": %llu, \"point_misses\": %llu, "
               "\"factor_hits\": %llu, \"factor_misses\": %llu},\n",
               static_cast<unsigned long long>(stats.point.hits),
               static_cast<unsigned long long>(stats.point.misses),
               static_cast<unsigned long long>(stats.factor.hits),
               static_cast<unsigned long long>(stats.factor.misses));
  std::fprintf(f,
               "  \"exactness\": {\"checked\": %zu, \"mismatches\": %zu}\n",
               ex.checked, ex.mismatches);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (ex.mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu cached answers diverged from the uncached path\n",
                 ex.mismatches);
    return 1;
  }
  for (const MixResult& m : mixes) {
    if (m.mix != "uniform" && m.speedup < required_speedup) {
      std::fprintf(stderr,
                   "FAIL: %s mix speedup %.2fx below the %.0fx floor\n",
                   m.mix.c_str(), m.speedup, required_speedup);
      return 1;
    }
  }
  return 0;
}
