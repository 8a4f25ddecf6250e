// loadgen: closed-loop and open-loop load generator for ctdb_server.
//
// Replays src/workload generator traffic (Dwyer-pattern contracts and
// queries over the shared p1..pN vocabulary) against a running server:
//
//   1. Priming: register one contract citing every vocabulary event, so
//      generated queries never trip the unknown-event check, then register
//      --contracts generated contracts in batches.
//   2. Load: --connections worker threads, each with its own connection
//      and its own seeded generator, issue a Register/Query/QueryBatch mix
//      until --duration-s elapses. Closed loop (--qps=0) sends
//      back-to-back; open loop paces sends at --qps across all
//      connections and measures latency from the *scheduled* send time,
//      so queueing delay is charged to the server (no coordinated
//      omission).
//   3. Report: p50/p99/p999/mean/max from the client-side obs histogram
//      (loadgen.request_us), outcome counters, and the server's own
//      metrics snapshot fetched with a Stats request, emitted as one JSON
//      object on stdout (and --metrics-out when given).
//
// Unavailable responses are the server load-shedding as designed — they
// are counted separately and are not errors. Protocol errors (frames that
// fail to decode, unexpected closes) fail the run's health check in CI.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/vocabulary.h"
#include "ltl/formula.h"
#include "monitor/types.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/generator.h"

namespace {

using ctdb::ParseUnsigned;
using ctdb::net::Client;
using ctdb::net::Request;
using ctdb::net::Response;

struct Options {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t connections = 8;
  double duration_s = 10;
  double qps = 0;  ///< 0 = closed loop
  size_t contracts = 50;
  size_t vocabulary = 20;
  size_t query_properties = 2;
  /// Operation mix in percent; the remainder is single queries.
  size_t register_pct = 10;
  size_t query_batch_pct = 20;
  /// Lifecycle band: half Unregister, half Replace, targeting contracts
  /// this worker registered itself (so the target is reliably live). When
  /// non-zero, a quarter of single queries also time-travel (random as_of
  /// up to the latest lifecycle clock the worker observed).
  size_t lifecycle_pct = 0;
  /// Stream band: each worker keeps one monitor stream open ("lg-stream-N")
  /// and spends this share of its operations appending random event batches
  /// to it (occasionally closing and reopening, so the server's open/close
  /// paths stay hot). Streams are closed at the end of the run.
  size_t stream_pct = 0;
  size_t batch_size = 4;
  uint64_t seed = 0xC7DB;
  std::string metrics_out;
};

struct Tally {
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> unavailable{0};
  std::atomic<uint64_t> errors{0};           ///< non-OK, non-Unavailable
  std::atomic<uint64_t> protocol_errors{0};  ///< transport/decode failures
  std::atomic<uint64_t> stream_events{0};    ///< events appended to streams
  std::atomic<uint64_t> stream_verdicts{0};  ///< verdict deltas received
};

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

/// Parses `text` as a finite decimal number no smaller than 0.
bool ParseNonNegative(const std::string& text, double* value) {
  const char* end = text.data() + text.size();
  double parsed = 0;
  const auto [stop, error] = std::from_chars(text.data(), end, parsed);
  if (error != std::errc() || stop != end || !std::isfinite(parsed) ||
      parsed < 0) {
    return false;
  }
  *value = parsed;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --port=PORT [--host=127.0.0.1] [--connections=8]\n"
      "          [--duration-s=10] [--qps=0 (closed loop)] [--contracts=50]\n"
      "          [--register-pct=10] [--query-batch-pct=20] [--seed=N]\n"
      "          [--lifecycle-mix[=PCT]] [--stream-mix[=PCT]]\n"
      "          [--metrics-out=PATH]\n",
      argv0);
  return 2;
}

/// A per-thread pool of pre-generated traffic: generation is too slow (and
/// too lock-hungry) for the hot loop, so each worker cycles through its own
/// seeded pool.
struct Traffic {
  std::vector<std::string> queries;
  std::vector<std::string> contracts;
};

/// Generated once in main, before the measured window opens: spec
/// generation translates every draw (to reject degenerate ones), which is
/// far too slow for the hot loop — workers share this immutable pool and
/// pick from it with their own RNGs.
Traffic GenerateTraffic(const Options& options, uint64_t seed) {
  Traffic traffic;
  ctdb::Vocabulary vocab;
  ctdb::ltl::FormulaFactory factory;
  ctdb::workload::GeneratorOptions gen;
  gen.vocabulary_size = options.vocabulary;
  gen.properties = options.query_properties;
  ctdb::workload::SpecGenerator queries(gen, seed, &vocab, &factory);
  for (size_t i = 0; i < 128; ++i) {
    auto spec = queries.Next();
    if (spec.ok()) traffic.queries.push_back(spec->text);
  }
  gen.properties = 5;
  ctdb::workload::SpecGenerator contracts(gen, seed ^ 0x5eed, &vocab,
                                          &factory);
  for (size_t i = 0; i < 16; ++i) {
    auto spec = contracts.Next();
    if (spec.ok()) traffic.contracts.push_back(spec->text);
  }
  return traffic;
}

/// The priming contract's text: cites every event so any generated query
/// parses against the server's vocabulary.
std::string PrimingLtl(size_t vocabulary) {
  std::string text = "F (";
  for (size_t i = 1; i <= vocabulary; ++i) {
    if (i > 1) text += " | ";
    text += "p" + std::to_string(i);
  }
  text += ")";
  return text;
}

void RecordOutcome(const ctdb::Result<Response>& result, Tally* tally) {
  tally->requests.fetch_add(1, std::memory_order_relaxed);
  if (!result.ok()) {
    tally->protocol_errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  switch (result->code) {
    case ctdb::StatusCode::kOk:
      tally->ok.fetch_add(1, std::memory_order_relaxed);
      break;
    case ctdb::StatusCode::kUnavailable:
      tally->unavailable.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      tally->errors.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

void Worker(const Options& options, const Traffic& traffic, size_t index,
            Tally* tally) {
  auto client = Client::Connect(options.host, options.port);
  if (!client.ok()) {
    std::fprintf(stderr, "worker %zu connect: %s\n", index,
                 client.status().ToString().c_str());
    tally->protocol_errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ctdb::Rng rng(options.seed ^ (index * 0x9E3779B97F4A7C15ull | 1));

  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.duration_s));
  // Open loop: this worker owes one request every `interval`.
  const bool open_loop = options.qps > 0;
  const auto interval =
      open_loop ? std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(options.connections) /
                          options.qps))
                : Clock::duration::zero();
  auto scheduled = Clock::now();
  uint64_t next_id = 1;
  uint64_t contract_serial = 0;
  // Lifecycle state: ids this worker registered (and has not unregistered)
  // and the latest system-period clock it observed in a lifecycle response.
  std::vector<uint32_t> owned;
  uint64_t max_clock = 0;
  // Stream state: one named monitor stream per worker.
  const std::string stream_name = ctdb::StringFormat("lg-stream-%zu", index);
  bool stream_open = false;
  auto random_batch = [&rng, &options]() {
    ctdb::monitor::EventBatch batch(1 + rng.Uniform(4));
    for (std::vector<std::string>& instant : batch) {
      const size_t events = rng.Uniform(4);
      for (size_t i = 0; i < events; ++i) {
        instant.push_back(
            "p" + std::to_string(1 + rng.Uniform(options.vocabulary)));
      }
    }
    return batch;
  };

  while (Clock::now() < deadline) {
    if (open_loop) {
      std::this_thread::sleep_until(scheduled);
    } else {
      scheduled = Clock::now();
    }

    Request request;
    bool track_register = false;
    uint64_t appended = 0;
    const size_t dice = rng.Uniform(100);
    const size_t lifecycle_band = options.register_pct + options.lifecycle_pct;
    const size_t stream_band = lifecycle_band + options.stream_pct;
    const bool want_register = dice < options.register_pct ||
                               (dice < lifecycle_band && owned.empty());
    if (want_register && !traffic.contracts.empty()) {
      const std::string& ltl =
          traffic.contracts[rng.Uniform(traffic.contracts.size())];
      request = Request::Register(
          next_id++,
          ctdb::StringFormat("lg-%zu-%llu", index,
                             static_cast<unsigned long long>(
                                 contract_serial++)),
          ltl);
      track_register = true;
    } else if (dice < lifecycle_band && !owned.empty()) {
      const size_t pick = rng.Uniform(owned.size());
      if (rng.Chance(0.5)) {
        request = Request::Unregister(next_id++, owned[pick]);
        owned.erase(owned.begin() + static_cast<ptrdiff_t>(pick));
      } else {
        request = Request::Replace(
            next_id++, owned[pick],
            traffic.contracts[rng.Uniform(traffic.contracts.size())]);
      }
    } else if (dice < stream_band) {
      if (!stream_open) {
        request = Request::StreamOpen(next_id++, stream_name);
      } else if (rng.Chance(0.05)) {
        // Occasionally cycle the stream so close/reopen stays exercised.
        request = Request::StreamClose(next_id++, stream_name);
      } else {
        ctdb::monitor::EventBatch batch = random_batch();
        appended = batch.size();
        request =
            Request::StreamAppend(next_id++, stream_name, std::move(batch));
      }
    } else if (dice < stream_band + options.query_batch_pct) {
      std::vector<std::string> batch;
      batch.reserve(options.batch_size);
      for (size_t i = 0; i < options.batch_size; ++i) {
        batch.push_back(traffic.queries[rng.Uniform(traffic.queries.size())]);
      }
      request = Request::QueryBatch(next_id++, std::move(batch));
    } else {
      uint64_t as_of = 0;
      if (options.lifecycle_pct > 0 && max_clock > 0 && rng.Chance(0.25)) {
        as_of = 1 + rng.Uniform(max_clock);
      }
      request = Request::Query(
          next_id++, traffic.queries[rng.Uniform(traffic.queries.size())],
          as_of);
    }

    const auto result = (*client)->Call(request);
    const auto latency = std::chrono::duration_cast<std::chrono::microseconds>(
        Clock::now() - scheduled);
    CTDB_OBS_HIST("loadgen.request_us",
                  static_cast<uint64_t>(latency.count()));
    RecordOutcome(result, tally);
    if (!result.ok()) return;  // transport broken; stop this worker
    if (result->status().ok()) {
      if (track_register && !result->ids.empty()) {
        owned.push_back(result->ids[0]);
      }
      if (result->request_kind == ctdb::net::MsgKind::kUnregister ||
          result->request_kind == ctdb::net::MsgKind::kReplace) {
        max_clock = std::max(max_clock, result->sequence);
      }
      switch (result->request_kind) {
        case ctdb::net::MsgKind::kStreamOpen:
          stream_open = true;
          break;
        case ctdb::net::MsgKind::kStreamClose:
          stream_open = false;
          break;
        case ctdb::net::MsgKind::kStreamAppend:
          tally->stream_events.fetch_add(appended, std::memory_order_relaxed);
          tally->stream_verdicts.fetch_add(result->verdicts.size(),
                                           std::memory_order_relaxed);
          break;
        default:
          break;
      }
    } else if (result->request_kind == ctdb::net::MsgKind::kStreamOpen &&
               result->code == ctdb::StatusCode::kAlreadyExists) {
      stream_open = true;  // a previous open's response was tallied as lost
    }

    if (open_loop) scheduled += interval;
  }

  // Leave no stream behind: the final summary also covers StreamClose when
  // the 5% in-loop close never fired.
  if (stream_open) {
    RecordOutcome((*client)->Call(Request::StreamClose(next_id++, stream_name)),
                  tally);
  }
}

/// Registers the priming contract and the pre-load contract set.
bool Prime(const Options& options, const Traffic& traffic) {
  auto client = Client::Connect(options.host, options.port);
  if (!client.ok()) {
    std::fprintf(stderr, "prime connect: %s\n",
                 client.status().ToString().c_str());
    return false;
  }
  auto primed = (*client)->Call(
      Request::Register(1, "loadgen-priming", PrimingLtl(options.vocabulary)));
  if (!primed.ok() || !primed->status().ok()) {
    std::fprintf(stderr, "priming registration failed: %s\n",
                 (primed.ok() ? primed->status() : primed.status())
                     .ToString()
                     .c_str());
    return false;
  }

  uint64_t id = 2;
  size_t registered = 0;
  while (registered < options.contracts) {
    std::vector<Request::Entry> batch;
    for (size_t i = 0; i < 16 && registered < options.contracts;
         ++i, ++registered) {
      const std::string& ltl =
          traffic.contracts.empty()
              ? PrimingLtl(options.vocabulary)
              : traffic.contracts[registered % traffic.contracts.size()];
      batch.push_back({ctdb::StringFormat("preload-%zu", registered), ltl});
    }
    auto result = (*client)->Call(Request::RegisterBatch(id++, std::move(batch)));
    if (!result.ok() || !result->status().ok()) {
      std::fprintf(stderr, "preload batch failed: %s\n",
                   (result.ok() ? result->status() : result.status())
                       .ToString()
                       .c_str());
      return false;
    }
  }
  return true;
}

std::string FetchServerMetrics(const Options& options) {
  auto client = Client::Connect(options.host, options.port);
  if (!client.ok()) return "{}";
  auto result = (*client)->Call(Request::Stats(1));
  if (!result.ok() || !result->status().ok() || result->stats_json.empty()) {
    return "{}";
  }
  return result->stats_json;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (ParseFlag(arg, "--host", &value)) {
      options.host = value;
    } else if (ParseFlag(arg, "--port", &value)) {
      if (!ParseUnsigned(value, &options.port)) return Usage(argv[0]);
    } else if (ParseFlag(arg, "--connections", &value)) {
      if (!ParseUnsigned(value, &options.connections)) return Usage(argv[0]);
    } else if (ParseFlag(arg, "--duration-s", &value)) {
      if (!ParseNonNegative(value, &options.duration_s)) return Usage(argv[0]);
    } else if (ParseFlag(arg, "--qps", &value)) {
      if (!ParseNonNegative(value, &options.qps)) return Usage(argv[0]);
    } else if (ParseFlag(arg, "--contracts", &value)) {
      if (!ParseUnsigned(value, &options.contracts)) return Usage(argv[0]);
    } else if (ParseFlag(arg, "--register-pct", &value)) {
      if (!ParseUnsigned(value, &options.register_pct)) return Usage(argv[0]);
    } else if (ParseFlag(arg, "--query-batch-pct", &value)) {
      if (!ParseUnsigned(value, &options.query_batch_pct)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--lifecycle-mix") == 0) {
      options.lifecycle_pct = 20;
    } else if (ParseFlag(arg, "--lifecycle-mix", &value)) {
      if (!ParseUnsigned(value, &options.lifecycle_pct)) return Usage(argv[0]);
    } else if (std::strcmp(arg, "--stream-mix") == 0) {
      options.stream_pct = 20;
    } else if (ParseFlag(arg, "--stream-mix", &value)) {
      if (!ParseUnsigned(value, &options.stream_pct)) return Usage(argv[0]);
    } else if (ParseFlag(arg, "--batch-size", &value)) {
      if (!ParseUnsigned(value, &options.batch_size)) return Usage(argv[0]);
    } else if (ParseFlag(arg, "--seed", &value)) {
      if (!ParseUnsigned(value, &options.seed)) return Usage(argv[0]);
    } else if (ParseFlag(arg, "--metrics-out", &value)) {
      options.metrics_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.port == 0 || options.connections == 0) return Usage(argv[0]);

  const Traffic traffic = GenerateTraffic(options, options.seed);
  if (traffic.queries.empty()) {
    std::fprintf(stderr, "traffic generation produced no queries\n");
    return 1;
  }
  if (!Prime(options, traffic)) return 1;

  Tally tally;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(options.connections);
  for (size_t i = 0; i < options.connections; ++i) {
    workers.emplace_back(Worker, std::cref(options), std::cref(traffic), i,
                         &tally);
  }
  for (std::thread& t : workers) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const std::string server_metrics = FetchServerMetrics(options);

  const auto snapshot = ctdb::obs::MetricsRegistry::Default()->Snapshot();
  const ctdb::obs::HistogramSnapshot* latency =
      snapshot.FindHistogram("loadgen.request_us");
  ctdb::obs::HistogramSnapshot empty;
  if (latency == nullptr) latency = &empty;

  const uint64_t requests = tally.requests.load();
  std::ostringstream out;
  out << "{\n"
      << "  \"mode\": \"" << (options.qps > 0 ? "open" : "closed") << "\",\n"
      << "  \"connections\": " << options.connections << ",\n"
      << "  \"duration_s\": " << elapsed << ",\n"
      << "  \"target_qps\": " << options.qps << ",\n"
      << "  \"requests\": " << requests << ",\n"
      << "  \"ok\": " << tally.ok.load() << ",\n"
      << "  \"unavailable\": " << tally.unavailable.load() << ",\n"
      << "  \"errors\": " << tally.errors.load() << ",\n"
      << "  \"protocol_errors\": " << tally.protocol_errors.load() << ",\n"
      << "  \"stream_events\": " << tally.stream_events.load() << ",\n"
      << "  \"stream_verdicts\": " << tally.stream_verdicts.load() << ",\n"
      << "  \"qps\": " << (elapsed > 0 ? requests / elapsed : 0) << ",\n"
      << "  \"latency_us\": {\n"
      << "    \"p50\": " << latency->PercentileUpperBound(0.5) << ",\n"
      << "    \"p99\": " << latency->PercentileUpperBound(0.99) << ",\n"
      << "    \"p999\": " << latency->PercentileUpperBound(0.999) << ",\n"
      << "    \"mean\": " << latency->mean() << ",\n"
      << "    \"max\": " << latency->max << "\n"
      << "  },\n"
      << "  \"server\": " << server_metrics << "\n"
      << "}\n";

  std::fputs(out.str().c_str(), stdout);
  if (!options.metrics_out.empty()) {
    std::ofstream file(options.metrics_out);
    file << out.str();
  }
  return tally.protocol_errors.load() == 0 ? 0 : 1;
}
