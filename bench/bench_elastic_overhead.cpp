// bench_elastic_overhead — what graceful degradation costs: for the three
// elastic-capable runners (summa / grid3d / alg25d with the elastic switch
// on) at P in the mid-30s, kills
// 0..f ranks in the enlistment window and tables the transition bill —
// shrink agreement, migration tax, execution at P′ — against the
// fault-free elastic run and the Theorem 3 bound at the surviving P′.
//
// The numbers are exact, not sampled: every run must produce the
// bit-identical C of the fault-free elastic run, and every machine rank's
// received words must equal the closed-form prediction (shrink control +
// width x (regrid + exec-at-P′ elements)) with zero tolerance.  Any missed
// prediction or wrong bit exits nonzero, so the perf leg doubles as a
// correctness gate.
//
// Usage: bench_elastic_overhead [--quick] [--out PATH]
//   --quick   fewer failure counts (the CI smoke mode)
//   --out     also emit a BENCH_PR9.json machine-readable report
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "matmul/elastic.hpp"
#include "matmul/runner.hpp"
#include "util/table.hpp"

using namespace camb;

namespace {

struct CaseResult {
  std::string algorithm;
  i64 P = 0;
  int failures = 0;
  i64 survivors = 0;
  i64 active = 0;
  std::string grid;
  double shrink_words = 0;     // per-survivor agreement control words
  double migration_words = 0;  // max per-rank regrid words (the tax)
  double exec_words = 0;       // max per-rank exec words on the final grid
  double clean_recv = 0;       // fault-free elastic critical-path recv
  double crashed_recv = 0;     // same, with f enlistment deaths
  double bound_pprime = 0;     // Theorem 3 at (shape, active ranks)
  double overhead_vs_bound = 0;  // exec / bound at P′
  bool exact = false;  // bit-identical C and per-rank words == prediction
};

std::string grid_str(const core::Grid3& g) {
  return std::to_string(g.p1) + "x" + std::to_string(g.p2) + "x" +
         std::to_string(g.p3);
}

/// Deterministic spread of f victims over [0, P): never adjacent, never
/// rank 0, so the survivor set exercises non-trivial regrid overlaps.
std::vector<int> victims(int f, i64 P) {
  std::vector<int> dead;
  for (int i = 0; i < f; ++i) {
    dead.push_back(static_cast<int>((1 + i * (P / 3 + 1)) % P));
  }
  return dead;
}

/// One (algorithm, f) cell: run with f enlistment-window deaths, pin every rank
/// against the closed-form prediction, and report the transition bill.
template <typename RunFn, typename PredictFn>
CaseResult run_case(const char* name, i64 P, int f, RunFn&& run,
                    PredictFn&& predict, const mm::RunReport& clean) {
  CaseResult res;
  res.algorithm = name;
  res.P = P;
  res.failures = f;

  mm::RunOptions opts = mm::RunOptions::verified(mm::VerifyMode::kReference);
  opts.elastic.enabled = true;
  opts.elastic.max_failures = std::max(1, f);
  if (f > 0) {
    opts.crash.ranks = victims(f, P);
    // All crash positions land inside the first zero-word probe round, so
    // recovery starts before any attempt-0 data moved — the scenario the
    // closed form prices.
    opts.crash.max_send_position = P - 2;
  }
  const mm::RunReport report = run(opts);

  const mm::ElasticPrediction pred = predict(
      report.elastic.failed, opts.elastic.max_failures);
  res.survivors = report.elastic.survivors;
  res.active = report.elastic.active_ranks;
  res.grid = grid_str(report.elastic.grid);
  res.shrink_words = report.elastic.shrink_recv_words;
  res.migration_words = report.elastic.migration_recv_words;
  res.exec_words = report.elastic.exec_recv_words;
  res.clean_recv = clean.measured_critical_recv;
  res.crashed_recv = report.measured_critical_recv;
  res.bound_pprime = report.elastic.bound_words_at_pprime;
  res.overhead_vs_bound = report.elastic.overhead_vs_bound;

  bool exact = report.verified && report.output_hash == clean.output_hash &&
               static_cast<int>(report.recovery.crashed.size()) == f &&
               report.elastic.survivors == pred.survivors &&
               report.elastic.active_ranks == pred.active_ranks &&
               report.measured_critical_recv == report.predicted_words();
  for (std::size_t r = 0; r < static_cast<std::size_t>(P); ++r) {
    exact &= report.rank_recv_words[r] == pred.rank_recv_words[r];
  }
  res.exact = exact;
  return res;
}

void write_json(const std::string& path, const std::vector<CaseResult>& rows,
                bool quick) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"bench\": \"elastic_overhead\",\n"
      << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n"
      << "  \"methodology\": \"f enlistment-window deaths per run; survivors "
         "shrink to the re-planned grid at P-f and finish; per-rank words "
         "pinned exactly against shrink + migration + exec-at-P' closed "
         "form and C pinned bit-identical to the fault-free elastic twin; "
         "shape 96x96x96\",\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CaseResult& r = rows[i];
    out << "    {\"algorithm\": \"" << r.algorithm << "\", \"procs\": " << r.P
        << ", \"failures\": " << r.failures
        << ", \"survivors\": " << r.survivors << ", \"active\": " << r.active
        << ", \"grid\": \"" << r.grid << "\""
        << ", \"shrink_words\": " << r.shrink_words
        << ", \"migration_words\": " << r.migration_words
        << ", \"exec_words\": " << r.exec_words
        << ", \"clean_recv_words\": " << r.clean_recv
        << ", \"crashed_recv_words\": " << r.crashed_recv
        << ", \"bound_pprime\": " << r.bound_pprime
        << ", \"overhead_vs_bound\": " << r.overhead_vs_bound
        << ", \"exact\": " << (r.exact ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  const core::Shape shape{96, 96, 96};
  const std::vector<int> failure_counts =
      quick ? std::vector<int>{0, 1} : std::vector<int>{0, 1, 2, 3};

  mm::SummaConfig summa{shape, 6};
  summa.integer_inputs = true;
  mm::Grid3dConfig grid3d{shape, core::Grid3{4, 3, 3}};
  grid3d.integer_inputs = true;
  mm::Alg25dConfig alg25d;
  alg25d.shape = shape;
  alg25d.g = 4;
  alg25d.c = 2;
  alg25d.integer_inputs = true;

  const mm::RunOptions clean_opts = [] {
    mm::RunOptions o = mm::RunOptions::verified(mm::VerifyMode::kReference);
    o.elastic.enabled = true;
    return o;
  }();

  std::cout << "=== Elastic shrink-and-regrid: the transition bill ===\n"
            << "(f enlistment deaths; 'exact' pins every rank's words to the "
               "shrink + migration + exec-at-P' closed form and C to the "
               "fault-free bits)\n\n";
  Table table({"algorithm", "P", "f", "P'", "grid", "shrink w", "migr w",
               "exec w", "vs Thm3@P'", "exact"});
  std::vector<CaseResult> rows;
  bool all_exact = true;

  const auto sweep = [&](const char* name, i64 P, auto&& run, auto&& predict) {
    const mm::RunReport clean = run(clean_opts);
    for (int f : failure_counts) {
      const CaseResult res = run_case(name, P, f, run, predict, clean);
      all_exact &= res.exact;
      rows.push_back(res);
      table.add_row({res.algorithm, Table::fmt_int(res.P),
                     Table::fmt_int(res.failures),
                     Table::fmt_int(res.survivors), res.grid,
                     Table::fmt(res.shrink_words, 0),
                     Table::fmt(res.migration_words, 1),
                     Table::fmt(res.exec_words, 1),
                     Table::fmt(res.overhead_vs_bound, 4),
                     res.exact ? "bit-exact" : "NO"});
    }
  };

  sweep(
      "summa_elastic", 36,
      [&](const mm::RunOptions& o) { return mm::run_summa(summa, o); },
      [&](const std::vector<int>& failed, int max_failures) {
        return mm::elastic_prediction(
            summa, mm::ElasticConfig{true, max_failures}, failed, 36, 1.0);
      });
  sweep(
      "grid3d_elastic", 36,
      [&](const mm::RunOptions& o) {
        return mm::run_grid3d(grid3d, o);
      },
      [&](const std::vector<int>& failed, int max_failures) {
        return mm::elastic_prediction(
            grid3d, mm::ElasticConfig{true, max_failures}, failed, 36, 1.0);
      });
  sweep(
      "alg25d_elastic", 32,
      [&](const mm::RunOptions& o) {
        return mm::run_alg25d(alg25d, o);
      },
      [&](const std::vector<int>& failed, int max_failures) {
        return mm::elastic_prediction(
            alg25d, mm::ElasticConfig{true, max_failures}, failed, 32, 1.0);
      });

  table.print(std::cout);
  std::cout << (all_exact
                    ? "\nEvery run finished bit-identically on the shrunken "
                      "grid and matched the closed-form bill exactly.\n"
                    : "\nSOME RUN MISSED ITS PREDICTION OR CHANGED BITS — "
                      "investigate!\n");
  if (!out_path.empty()) {
    write_json(out_path, rows, quick);
    std::cout << "wrote " << out_path << "\n";
  }
  return all_exact ? 0 : 1;
}
