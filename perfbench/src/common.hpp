// common.hpp — shared plumbing of the perfbench program: process usage
// snapshots, sample statistics, the metric record every workload emits, and
// the allocation counter that only the traced run switches on.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Process-wide counters at one instant: wall clock plus getrusage(SELF),
/// which sums every thread of the process (fiber workers included).
struct Usage {
  double wall_s = 0;
  double cpu_s = 0;  ///< user + sys
  long minor_faults = 0;
  long vol_csw = 0;
  long invol_csw = 0;
  long max_rss_kb = 0;
};

Usage usage_now();

/// b − a for every counter (max_rss_kb: b's value, it is a high-water mark).
Usage usage_delta(const Usage& a, const Usage& b);

double seconds_since(std::chrono::steady_clock::time_point t0);

/// Mean cost of one steady_clock::now() read, in ns.  Per-query latencies
/// are reported net of it (one read per sample), which also keeps them from
/// landing on whole nanoseconds.
double clock_read_ns();

/// Quantile by nearest rank on a copy (q in [0, 1]); 0 for an empty input.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

/// `x` printed with every significant digit (%.17g).
std::string full_digits(double x);

/// One reported number.  `samples` is how many measurements stand behind it
/// (1 for a count or a single timing).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  long samples = 1;
};

/// What a workload run hands back to main: its metrics, and the correctness
/// ledger.  An operation is one executed iteration, one planner query, or
/// (traced run only) one replay whose fidelity is checked.
struct Outcome {
  std::vector<Metric> metrics;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  ///< why each failed operation failed
  /// Human-readable figures printed before the JSON line but not part of
  /// BENCHMARK.json's metric set (e.g. msgs_per_s, plan_p99_us).
  std::vector<Metric> extras;

  /// Add a metric, or replace the one already under `name`.
  void set(const std::string& name, double value, const std::string& unit,
           long samples = 1) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m = {name, value, unit, samples};
        return;
      }
    }
    metrics.push_back({name, value, unit, samples});
  }
  /// Record one checked operation; empty `reasons` means it was right.
  void check(const std::vector<std::string>& reasons) {
    ++attempted;
    if (reasons.empty()) return;
    ++failed;
    failures.insert(failures.end(), reasons.begin(), reasons.end());
  }
};

/// Command-line settings every workload sees.
struct Settings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test of the correctness gate: tamper with the first checked
  /// answer so the run must report it wrong and exit nonzero.
  bool corrupt_answer = false;
};

/// Operator-new counter compiled into this program (alloc_count.cpp).  Off
/// unless a traced run switches it on around the region it measures.
namespace alloc {
struct Counts {
  long long allocs = 0;
  long long bytes = 0;
};
void set_counting(bool on);
Counts read();
Counts delta(const Counts& a, const Counts& b);
}  // namespace alloc

}  // namespace perfbench
