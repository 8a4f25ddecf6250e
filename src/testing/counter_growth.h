// Growth of process-wide metrics counters (obs/metrics.h) over a span of a
// test, with metrics switched on meanwhile. Every counter reads 0 when
// observability is compiled out (-DCTDB_OBS=OFF), so assertions on the
// growth sit behind `if (CTDB_OBS)`.

#pragma once

#include <cstdint>
#include <string_view>

#include "obs/metrics.h"
#include "obs/obs.h"

namespace ctdb::testing {

class CounterGrowth {
 public:
  CounterGrowth() : was_enabled_(obs::Enabled()) {
    obs::SetEnabled(true);
    before_ = Scrape();
  }
  ~CounterGrowth() { obs::SetEnabled(was_enabled_); }

  CounterGrowth(const CounterGrowth&) = delete;
  CounterGrowth& operator=(const CounterGrowth&) = delete;

  /// How much the counter `name` grew since construction.
  uint64_t operator()(std::string_view name) const {
    return Scrape().CounterValue(name) - before_.CounterValue(name);
  }

 private:
  static obs::MetricsSnapshot Scrape() {
    return obs::MetricsRegistry::Default()->Snapshot();
  }

  bool was_enabled_;
  obs::MetricsSnapshot before_;
};

}  // namespace ctdb::testing
