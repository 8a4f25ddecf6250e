// ctdb_diff_fuzz — seeded differential fuzzer for the full query pipeline.
//
// Each iteration builds a random contract database + query workload and
// cross-checks indexed vs. unindexed answers, QueryBatch vs. serial Query,
// threads=N vs. threads=1, persistence save/load round-trips, core::Permits
// vs. an independent product-automaton reference checker, and metamorphic
// LTL rewrites. With --lifecycle it instead fuzzes the contract lifecycle:
// random Register / Unregister / Replace streams whose QueryAsOf(s) answers
// are cross-checked against fresh databases built from the prefix at s and
// against the same queries as one parallel batch (testing/differential.h,
// RunLifecycleDifferential). With --monitor it
// fuzzes the streaming compliance monitor: random event-pattern contracts
// driven over random traces, incremental stepper verdicts cross-checked
// against a naive set-based recomputation, batched vs. single appends,
// pruning on vs. off, and violated verdicts against ltl::Evaluate on random
// lasso extensions (RunMonitorDifferential). Any mismatch prints a single
// seed that reproduces it:
//
//   ctdb_diff_fuzz [--lifecycle|--monitor] --iters=1 --seed=<seed>
//
// Exit status: 0 when all checks agree, 1 on any mismatch, 2 on bad usage.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "testing/differential.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--iters=N] [--seed=S] [--contracts=N] "
               "[--contract-patterns=N]\n"
               "          [--queries=N] [--query-patterns=N] [--vocab=N] "
               "[--threads=N]\n"
               "          [--words-per-formula=N] [--max-mismatches=N]\n"
               "          [--lifecycle] [--mutations=N] [--sample-ticks=N]\n"
               "          [--monitor] [--batches=N] [--batch-events=N]\n",
               argv0);
}

bool ParseFlag(const char* arg, const char* name, uint64_t* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  char* end = nullptr;
  *out = std::strtoull(arg + len + 1, &end, 10);
  return end != arg + len + 1 && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  ctdb::testing::DiffOptions options;
  ctdb::testing::LifecycleDiffOptions lifecycle_options;
  ctdb::testing::MonitorDiffOptions monitor_options;
  bool lifecycle = false;
  bool monitor = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t value = 0;
    if (std::strcmp(arg, "--lifecycle") == 0) {
      lifecycle = true;
    } else if (std::strcmp(arg, "--monitor") == 0) {
      monitor = true;
    } else if (ParseFlag(arg, "--iters", &value)) {
      options.iters = value;
      lifecycle_options.iters = value;
      monitor_options.iters = value;
    } else if (ParseFlag(arg, "--seed", &value)) {
      options.seed = value;
      lifecycle_options.seed = value;
      monitor_options.seed = value;
    } else if (ParseFlag(arg, "--contracts", &value)) {
      options.contracts = value;
      monitor_options.contracts = value;
    } else if (ParseFlag(arg, "--contract-patterns", &value)) {
      options.contract_patterns = value;
      lifecycle_options.contract_patterns = value;
      monitor_options.contract_patterns = value;
    } else if (ParseFlag(arg, "--queries", &value)) {
      options.queries = value;
      lifecycle_options.queries = value;
    } else if (ParseFlag(arg, "--query-patterns", &value)) {
      options.query_patterns = value;
      lifecycle_options.query_patterns = value;
    } else if (ParseFlag(arg, "--vocab", &value)) {
      options.vocabulary_size = value;
      lifecycle_options.vocabulary_size = value;
      monitor_options.vocabulary_size = value;
    } else if (ParseFlag(arg, "--threads", &value)) {
      options.threads = value;
    } else if (ParseFlag(arg, "--words-per-formula", &value)) {
      options.words_per_formula = value;
    } else if (ParseFlag(arg, "--max-mismatches", &value)) {
      options.max_mismatches = value;
      lifecycle_options.max_mismatches = value;
      monitor_options.max_mismatches = value;
    } else if (ParseFlag(arg, "--mutations", &value)) {
      lifecycle_options.mutations = value;
    } else if (ParseFlag(arg, "--sample-ticks", &value)) {
      lifecycle_options.sample_ticks = value;
    } else if (ParseFlag(arg, "--batches", &value)) {
      monitor_options.batches = value;
    } else if (ParseFlag(arg, "--batch-events", &value)) {
      monitor_options.batch_events = value;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg);
      Usage(argv[0]);
      return 2;
    }
  }
  if (lifecycle && monitor) {
    std::fprintf(stderr, "--lifecycle and --monitor are mutually exclusive\n");
    Usage(argv[0]);
    return 2;
  }

  if (monitor) {
    std::printf(
        "ctdb_diff_fuzz --monitor: %zu iterations from seed %" PRIu64
        " (%zu contracts, %zu batches x %zu events, vocab %zu)\n",
        monitor_options.iters, monitor_options.seed, monitor_options.contracts,
        monitor_options.batches, monitor_options.batch_events,
        monitor_options.vocabulary_size);
  } else if (lifecycle) {
    std::printf(
        "ctdb_diff_fuzz --lifecycle: %zu iterations from seed %" PRIu64
        " (%zu mutations, %zu queries, vocab %zu)\n",
        lifecycle_options.iters, lifecycle_options.seed,
        lifecycle_options.mutations, lifecycle_options.queries,
        lifecycle_options.vocabulary_size);
  } else {
    std::printf(
        "ctdb_diff_fuzz: %zu iterations from seed %" PRIu64
        " (%zu contracts, %zu queries, vocab %zu, threads %zu)\n",
        options.iters, options.seed, options.contracts, options.queries,
        options.vocabulary_size, options.threads);
  }

  const ctdb::testing::DiffReport report =
      monitor ? ctdb::testing::RunMonitorDifferential(monitor_options)
      : lifecycle
          ? ctdb::testing::RunLifecycleDifferential(lifecycle_options)
          : ctdb::testing::RunDifferential(options);

  for (const auto& mismatch : report.mismatches) {
    std::fprintf(stderr, "%s\n",
                 ctdb::testing::FormatMismatch(mismatch).c_str());
  }
  std::printf("%zu iterations, %zu checks, %zu mismatches\n", report.iterations,
              report.checks, report.mismatches.size());
  return report.ok() ? 0 : 1;
}
