#include "broker/stats.h"

#include "obs/metrics.h"
#include "util/string_util.h"

namespace ctdb::broker {

namespace {

/// Millisecond (double) phase time → whole microseconds for the histograms
/// (unused when CTDB_OBS=OFF compiles them out).
[[maybe_unused]] uint64_t MillisToMicros(double ms) {
  return ms <= 0 ? 0 : static_cast<uint64_t>(ms * 1e3);
}

}  // namespace

void RecordQueryStats(const QueryStats& stats) {
  CTDB_OBS_COUNT("broker.queries", 1);
  CTDB_OBS_COUNT("broker.candidates", stats.candidates);
  CTDB_OBS_COUNT("broker.matches", stats.matches);
  CTDB_OBS_HIST("broker.query.translate_us", MillisToMicros(stats.translate_ms));
  CTDB_OBS_HIST("broker.query.prefilter_us", MillisToMicros(stats.prefilter_ms));
  CTDB_OBS_HIST("broker.query.permission_us",
                MillisToMicros(stats.permission_ms));
  CTDB_OBS_HIST("broker.query.total_us", MillisToMicros(stats.total_ms));
  CTDB_OBS_HIST("broker.query.candidates", stats.candidates);
  if (stats.database_size > 0) {
    // Prefilter selectivity: surviving candidates as a percentage of the
    // database (Table 2's "candidates" column, normalized).
    CTDB_OBS_HIST("broker.query.selectivity_pct",
                  stats.candidates * 100 / stats.database_size);
  }
}

void RecordRegistrationStats([[maybe_unused]] const RegistrationStats& stats) {
  CTDB_OBS_COUNT("broker.registrations", 1);
  CTDB_OBS_HIST("broker.register.translate_us",
                MillisToMicros(stats.translate_ms));
  CTDB_OBS_HIST("broker.register.prefilter_insert_us",
                MillisToMicros(stats.prefilter_insert_ms));
  CTDB_OBS_HIST("broker.register.projection_precompute_us",
                MillisToMicros(stats.projection_precompute_ms));
  CTDB_OBS_HIST("broker.register.ba_states", stats.ba_states);
}

std::string QueryStats::ToString() const {
  return StringFormat(
      "total=%.2fms translate=%.2fms prefilter=%.2fms permission=%.2fms "
      "db=%zu candidates=%zu matches=%zu query_ba=%zus/%zut",
      total_ms, translate_ms, prefilter_ms, permission_ms, database_size,
      candidates, matches, query_states, query_transitions);
}

std::string RegistrationStats::ToString() const {
  return StringFormat(
      "translate=%.2fms prefilter=%.2fms projections=%.2fms ba=%zus/%zut "
      "subsets=%zu distinct=%zu",
      translate_ms, prefilter_insert_ms, projection_precompute_ms, ba_states,
      ba_transitions, projection_subsets, projection_distinct);
}

}  // namespace ctdb::broker
