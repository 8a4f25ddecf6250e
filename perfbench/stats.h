// Sample statistics and registry arithmetic for ctdb_perfbench.
//
// Latencies are kept as raw samples and summarised with exact order
// statistics. The server's own metrics registry is read through a kStats
// request (obs::MetricsSnapshot::ToJson) and compared as before/after deltas.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// The q-quantile (0 ≤ q ≤ 1) of `values`, interpolating linearly between
/// the two closest ranks. 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Counters and histograms of one registry scrape.
struct Registry {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, ctdb::obs::HistogramSnapshot> histograms;

  uint64_t Counter(const std::string& name) const;
  /// Empty histogram when absent.
  ctdb::obs::HistogramSnapshot Histogram(const std::string& name) const;
};

/// Parses the JSON form of obs::MetricsSnapshot. False on malformed input.
bool ParseRegistry(const std::string& json, Registry* out);

/// `after` − `before`, counter by counter and bucket by bucket (min/max are
/// taken from `after`).
Registry Delta(const Registry& after, const Registry& before);

/// q-quantile of a power-of-two-bucket histogram, interpolated linearly
/// inside the bucket that holds it. 0 for an empty histogram.
double HistogramQuantile(const ctdb::obs::HistogramSnapshot& h, double q);

/// sum / count of a histogram, 0 when empty.
double HistogramMean(const ctdb::obs::HistogramSnapshot& h);

/// a / b, 0 when b is 0.
double Ratio(double a, double b);

}  // namespace perfbench
