// Runs one ctdb_perfbench workload: rounds of set-up, hot-set warm-up, the
// closed-loop window through net::Client against an in-process net::Server
// and output checks; in traced mode, one further window whose layer timings
// come from the benchmark's own calls into net::ExecuteRequest, the frame
// codecs and broker::Broker on a replay database of its own.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;      ///< end-to-end, or per-layer when traced
  std::vector<std::string> report;  ///< human-readable lines
  std::vector<std::string> errors;  ///< failed checks and failed ops
};

/// `work_dir` holds the data directories (removed again) and, when traced,
/// the trace file.
Outcome RunWorkload(const WorkloadSpec& spec, const Inputs& inputs,
                    bool trace, const std::string& work_dir);

}  // namespace perfbench
