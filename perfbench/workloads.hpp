// The three benchmark workloads. Each is a closed batch — every job is
// submitted up front — and reports work completed per host second at its
// stated shape. perfbench/workloads.json records why each one exists and
// which end-to-end metric each layer metric should move.
#pragma once

#include <cstdint>
#include <string>

#include "ledger.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10;  ///< measuring window of an untraced run
  bool trace = false;   ///< per-layer run instead of the end-to-end one
  // Shape overrides; only the self-test uses them, to run tiny shapes and
  // provoke each failure the checks must catch.
  int machines = 0;
  int jobs = 0;
  int plans = 0;
  int limit_sec = 0;
  std::string discipline;
};

/// scale_tiered and readvertise. Returns the number of batches run.
int run_pool_workload(const Options& opt, ResultDoc& doc);
/// chaos_campaign. Returns the number of batches run.
int run_campaign_workload(const Options& opt, ResultDoc& doc);

}  // namespace perfbench
