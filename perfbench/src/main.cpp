// main.cpp — perfbench entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-commit <sha>] [--corrupt-answer]
//
// Prints a provenance block, every metric by name with its unit and sample
// count, and as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (see README.md).  Exits 0 only when every checked answer was right; 1 when
// any was wrong; 2 on bad arguments or an error before any result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Outcome;
using perfbench::Settings;

constexpr const char* kWorkloads[] = {"summa_p16k_msgs", "grid3d_p64_gemm",
                                      "planner_stream"};

/// The executed workloads' fixed definitions (planner_stream has none).
bool exec_spec(const std::string& name, perfbench::ExecSpec& spec) {
  using camb::mm::VerifyMode;
  if (name == "summa_p16k_msgs") {
    spec = {"summa", {512, 512, 512}, 16384, VerifyMode::kNone};
    return true;
  }
  if (name == "grid3d_p64_gemm") {
    spec = {"grid3d_optimal", {3072, 3072, 3072}, 64, VerifyMode::kFreivalds};
    return true;
  }
  return false;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

bool optimized_build() {
#if defined(__OPTIMIZE__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

/// A JSON string literal (the values here are plain ASCII identifiers,
/// flags and a CPU brand string; quotes and backslashes are escaped).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// A JSON number with every digit; non-finite values become null.
std::string number(double x) {
  return std::isfinite(x) ? perfbench::full_digits(x) : "null";
}

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "summa_p16k_msgs|grid3d_p64_gemm|planner_stream --seed N "
               "--seconds S --trace 0|1 [--git-commit SHA] "
               "[--corrupt-answer]\n",
               why.c_str());
  std::exit(2);
}

Settings parse(int argc, char** argv, std::string& commit) {
  Settings s;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-answer") {
      s.corrupt_answer = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        s.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        if (value.empty() || value[0] == '-') {
          usage_error("bad value for --seed: " + value);
        }
        s.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        s.seconds = std::stod(value, &used);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
        s.trace = value == "1";
      } else if (flag == "--git-commit") {
        commit = value;
      } else {
        usage_error("unknown flag " + flag);
      }
      if (used != 0 && used != value.size()) {
        usage_error("bad value for " + flag + ": " + value);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage_error("--workload is required");
  if (!(s.seconds > 0)) usage_error("--seconds must be positive");
  bool known = false;
  for (const char* w : kWorkloads) known = known || s.workload == w;
  if (!known) usage_error("unknown workload " + s.workload);
  return s;
}

void print_metric(const Metric& m) {
  std::printf("  %-34s %22s %-8s (samples: %ld)\n", m.name.c_str(),
              number(m.value).c_str(), m.unit.c_str(), m.samples);
}

}  // namespace

int main(int argc, char** argv) {
  std::string commit = "unknown";
  const Settings settings = parse(argc, argv, commit);
  perfbench::ExecSpec spec;
  const bool executed = exec_spec(settings.workload, spec);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const long fiber_workers =
      executed ? std::min<long>(hw, static_cast<long>(spec.nprocs)) : 0;

  std::printf("perfbench workload=%s seed=%llu seconds=%s trace=%d\n",
              settings.workload.c_str(),
              static_cast<unsigned long long>(settings.seed),
              number(settings.seconds).c_str(), settings.trace ? 1 : 0);
  std::printf(
      "provenance: {\"nproc\": %d, \"fiber_workers\": %ld, \"cpu_model\": %s, "
      "\"build_type\": %s, \"optimized\": %s, \"camb_native\": %s, "
      "\"cxx_flags\": %s, \"git_commit\": %s, \"seed\": %llu}\n",
      hw, fiber_workers, quoted(cpu_model()).c_str(),
      quoted(PERFBENCH_BUILD_TYPE).c_str(),
      optimized_build() ? "true" : "false", PERFBENCH_NATIVE ? "true" : "false",
      quoted(PERFBENCH_CXX_FLAGS).c_str(), quoted(commit).c_str(),
      static_cast<unsigned long long>(settings.seed));
  if (!optimized_build()) {
    const char* warn =
        "WARNING: perfbench was built without optimisation or with a "
        "sanitizer; its timings do not describe the library\n";
    std::printf("%s", warn);
    std::fprintf(stderr, "%s", warn);
  }
  std::fflush(stdout);

  Outcome out;
  try {
    out = executed ? perfbench::run_executed(spec, settings)
                   : perfbench::run_planner_stream(settings);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  std::printf("%s metrics (workload %s, seed %llu):\n",
              settings.trace ? "per-layer" : "end-to-end",
              settings.workload.c_str(),
              static_cast<unsigned long long>(settings.seed));
  for (const Metric& m : out.metrics) print_metric(m);
  out.extras.push_back({"failed_frac",
                        static_cast<double>(out.failed) /
                            static_cast<double>(std::max(1L, out.attempted)),
                        "ratio", out.attempted});
  std::printf("workload figures outside the metric set:\n");
  for (const Metric& m : out.extras) print_metric(m);

  constexpr std::size_t kShownFailures = 20;
  for (std::size_t i = 0; i < out.failures.size() && i < kShownFailures; ++i) {
    std::printf("WRONG: %s\n", out.failures[i].c_str());
    std::fprintf(stderr, "perfbench: WRONG: %s\n", out.failures[i].c_str());
  }
  if (out.failures.size() > kShownFailures) {
    std::printf("WRONG: ... %zu more\n", out.failures.size() - kShownFailures);
  }

  const bool correct = out.failed == 0 && out.attempted > 0;
  std::string json = "{\"correct\": ";
  json += std::string(correct ? "true" : "false") +
          ", \"attempted\": " + std::to_string(out.attempted) +
          ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " +
            number(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
