// workloads.hpp — the benchmark's three fixed workloads.
#pragma once

#include <string>

#include "common.hpp"
#include "core/dims.hpp"
#include "matmul/runner.hpp"

namespace perfbench {

/// An executed workload: one registry algorithm at a fixed (shape, P) on
/// the fiber scheduler, f64, with a fixed verification mode.
struct ExecSpec {
  std::string algorithm;
  camb::core::Shape shape;
  camb::i64 nprocs = 1;
  camb::mm::VerifyMode verify = camb::mm::VerifyMode::kNone;
};

/// summa_p16k_msgs and grid3d_p64_gemm.
Outcome run_executed(const ExecSpec& spec, const Settings& settings);

/// planner_stream.
Outcome run_planner_stream(const Settings& settings);

}  // namespace perfbench
