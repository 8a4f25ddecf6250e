#include "inputs.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "base/vocabulary.h"
#include "ltl/formula.h"
#include "util/rng.h"
#include "workload/events.h"
#include "workload/generator.h"

namespace perfbench {

using ctdb::Result;
using ctdb::Rng;
using ctdb::Status;

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kQuery: return "query";
    case Kind::kBatch: return "batch";
    case Kind::kAsOf: return "as_of";
    case Kind::kRegister: return "register";
    case Kind::kReplace: return "replace";
    case Kind::kUnregister: return "unregister";
    case Kind::kOpen: return "open";
    case Kind::kAppend: return "append";
    case Kind::kClose: return "close";
  }
  return "?";
}

Result<WorkloadSpec> FindWorkload(const std::string& name,
                                  const std::string& size) {
  const bool smoke = size == "smoke";
  if (!smoke && size != "full") {
    return Status::InvalidArgument("unknown size '" + size + "'");
  }
  WorkloadSpec w;
  w.name = name;
  if (name == "query") {
    w.corpus_seed = 0x5157;
    w.priming = true;
    w.preload = smoke ? 6 : 20;
    w.preload_properties = 5;
    w.hot = smoke ? 6 : 24;
    w.ops_per_second = 90;
    w.min_ops = 40;
  } else if (name == "stream") {
    w.corpus_seed = 0x5354;
    w.event_preload = true;
    w.preload = smoke ? 16 : 256;
    w.preload_properties = 2;
    w.ops_per_second = 5000;
    w.min_ops = 200;
  } else if (name == "mixed-shard4") {
    w.corpus_seed = 0x4d58;
    w.shards = 4;
    w.priming = true;
    w.preload = smoke ? 12 : 256;
    w.preload_properties = 3;
    w.hot = smoke ? 4 : 16;
    w.ops_per_second = 110;
    w.min_ops = 40;
    // Writes wait for fsync and as-of queries fan out to four shards, so
    // an op's round trip varies more here: four rounds per op.
    w.rounds = 4;
  } else {
    return Status::NotFound("unknown workload '" + name +
                            "' (query, stream, mixed-shard4)");
  }
  if (smoke) {
    w.ops_per_second = 0;
    w.rounds = 1;
  }
  return w;
}

std::string PrimingLtl() {
  std::string text = "F (";
  for (int i = 1; i <= 20; ++i) {
    if (i > 1) text += " | ";
    text += "p" + std::to_string(i);
  }
  return text + ")";
}

namespace {

/// Draws distinct spec texts from one generator family.
class TextSource {
 public:
  TextSource(uint64_t seed, size_t properties, bool events)
      : properties_(properties) {
    ctdb::workload::GeneratorOptions options;
    options.properties = properties;
    if (events) {
      event_gen_ = std::make_unique<ctdb::workload::EventSpecGenerator>(
          options, seed, &vocab_, &factory_);
    } else {
      spec_gen_ = std::make_unique<ctdb::workload::SpecGenerator>(
          options, seed, &vocab_, &factory_);
    }
  }
  TextSource(const TextSource&) = delete;
  TextSource& operator=(const TextSource&) = delete;

  /// Draws `count` more texts, none repeating an earlier draw.
  Status Draw(size_t count, std::vector<std::string>* out) {
    for (size_t i = 0; i < count; ++i) {
      bool fresh = false;
      for (int attempt = 0; attempt < 256 && !fresh; ++attempt) {
        auto spec = spec_gen_ ? spec_gen_->Next() : event_gen_->Next();
        if (!spec.ok()) return spec.status();
        fresh = taken_.insert(spec->text).second;
        if (fresh) out->push_back(spec->text);
      }
      if (!fresh) {
        return Status::Internal("no new " + std::to_string(properties_) +
                                "-property text after 256 draws");
      }
    }
    return Status::OK();
  }

 private:
  size_t properties_;
  ctdb::Vocabulary vocab_;
  ctdb::ltl::FormulaFactory factory_;
  std::unique_ptr<ctdb::workload::SpecGenerator> spec_gen_;
  std::unique_ptr<ctdb::workload::EventSpecGenerator> event_gen_;
  std::set<std::string> taken_;
};

/// One batch of texts to draw from one source.
struct Draw {
  TextSource* source;
  size_t count;
  std::vector<std::string> texts;
  Status status;
};

/// Runs the draws on their own threads (each source is single-threaded;
/// distinct sources share nothing).
Status DrawAll(std::vector<Draw*> draws) {
  std::vector<std::thread> threads;
  for (Draw* d : draws) {
    threads.emplace_back([d] { d->status = d->source->Draw(d->count, &d->texts); });
  }
  for (std::thread& t : threads) t.join();
  for (Draw* d : draws) CTDB_RETURN_NOT_OK(d->status);
  return Status::OK();
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

Op OpOf(Kind kind) {
  Op op;
  op.kind = kind;
  return op;
}

size_t Round(double x) { return static_cast<size_t>(std::llround(x)); }

size_t OpBudget(const WorkloadSpec& spec, double seconds) {
  return std::max(spec.min_ops,
                  Round(static_cast<double>(spec.ops_per_second) * seconds));
}

/// How often each of `hot` texts comes up to fill `share` of `slots`: at
/// least once.
size_t Repeats(double share, size_t slots, size_t hot) {
  return std::max<size_t>(
      1, Round(share * static_cast<double>(slots) / static_cast<double>(hot)));
}

/// Every hot text [0, hot) exactly `repeats` times, then the fresh texts
/// `first_fresh`.. once each, in a seeded order.
std::vector<uint32_t> SlotTexts(size_t hot, size_t repeats, size_t fresh,
                                uint32_t first_fresh, Rng* rng) {
  std::vector<uint32_t> texts;
  for (size_t r = 0; r < repeats; ++r) {
    for (size_t t = 0; t < hot; ++t) texts.push_back(static_cast<uint32_t>(t));
  }
  for (size_t i = 0; i < fresh; ++i) {
    texts.push_back(first_fresh + static_cast<uint32_t>(i));
  }
  Shuffle(&texts, rng);
  return texts;
}

/// The query workload's composition for an op budget of `n`: about 80%
/// single queries and 20% batches of 4; in each family every hot text
/// comes up the same number of times and 30% of the slots (rounded) are
/// fresh texts.
struct QueryShape {
  size_t singles = 0;
  size_t single_repeats = 0;  ///< per hot text
  size_t batches = 0;
  size_t entry_repeats = 0;   ///< per hot text, over all batch entries

  QueryShape(size_t n, size_t hot) {
    single_repeats = Repeats(0.7, Round(0.8 * static_cast<double>(n)), hot);
    singles = Round(static_cast<double>(single_repeats * hot) / 0.7);
    batches = std::max<size_t>(1, Round(static_cast<double>(singles) / 4.0));
    entry_repeats = std::min(Repeats(0.7, 4 * batches, hot), 4 * batches / hot);
  }
  size_t fresh_singles(size_t hot) const { return singles - single_repeats * hot; }
  size_t fresh_entries(size_t hot) const {
    return 4 * batches - entry_repeats * hot;
  }
};

/// The query workload's op list. Which four texts share a batch comes from
/// the corpus seed (a batch costs the sum of its texts); `rng` orders the
/// single queries and the batches.
void MakeQueryOps(const QueryShape& shape, uint64_t corpus_seed, Rng* rng,
                  Inputs* in) {
  std::vector<Kind> kinds(shape.singles, Kind::kQuery);
  kinds.insert(kinds.end(), shape.batches, Kind::kBatch);
  Shuffle(&kinds, rng);
  const uint32_t first_fresh = static_cast<uint32_t>(in->hot);
  const std::vector<uint32_t> single_texts =
      SlotTexts(in->hot, shape.single_repeats, shape.fresh_singles(in->hot),
                first_fresh, rng);
  Rng grouping(corpus_seed ^ 0xba7c4ull);
  const std::vector<uint32_t> batch_texts = SlotTexts(
      in->hot, shape.entry_repeats, shape.fresh_entries(in->hot),
      first_fresh + static_cast<uint32_t>(shape.fresh_singles(in->hot)),
      &grouping);
  std::vector<uint32_t> batch_order(shape.batches);
  for (size_t b = 0; b < shape.batches; ++b) {
    batch_order[b] = static_cast<uint32_t>(b);
  }
  Shuffle(&batch_order, rng);
  size_t next_single = 0;
  size_t next_batch = 0;
  for (Kind k : kinds) {
    Op op = OpOf(k);
    if (k == Kind::kQuery) {
      op.texts.push_back(single_texts[next_single++]);
    } else {
      const size_t b = batch_order[next_batch++];
      op.texts.assign(batch_texts.begin() + static_cast<ptrdiff_t>(4 * b),
                      batch_texts.begin() + static_cast<ptrdiff_t>(4 * b + 4));
    }
    in->ops.push_back(std::move(op));
  }
}

/// The stream workload's op list: two streams on the one connection, their
/// ops interleaved in a seeded order. Each appends 1–4 instants at a time,
/// every size equally often, and closes and reopens every `cycle` appends;
/// stream 1 spends exactly half its appends (half of each size) on a
/// vocabulary no contract cites.
void MakeStreamOps(size_t budget, uint64_t seed, Inputs* in) {
  const size_t cycle = 400;
  Rng order(seed ^ 0x0de7ull);
  std::array<std::vector<Op>, 2> streams;
  // Per stream: appends plus a close and an open every `cycle` appends,
  // rounded down to whole groups of eight (four sizes, native and foreign).
  const size_t appends =
      std::max<size_t>(8, budget / 2 * cycle / (cycle + 2) / 8 * 8);
  for (uint8_t s = 0; s < 2; ++s) {
    Rng rng(seed ^ (0x57eaull + s * 0x9E3779B97F4A7C15ull));
    ctdb::workload::TraceOptions native_options;
    ctdb::workload::TraceOptions foreign_options;
    foreign_options.prefix = "q";
    ctdb::workload::TraceGenerator native(native_options, rng.Next());
    ctdb::workload::TraceGenerator foreign(foreign_options, rng.Next());
    std::vector<std::pair<size_t, bool>> shapes;  // instants, foreign
    for (size_t i = 0; i < appends; ++i) {
      shapes.push_back({1 + i % 4, s == 1 && (i / 4) % 2 == 1});
    }
    Shuffle(&shapes, &rng);
    std::vector<Op>& ops = streams[s];
    for (size_t a = 0; a < appends; ++a) {
      if (a % cycle == 0) {
        if (a > 0) ops.push_back(OpOf(Kind::kClose));
        ops.push_back(OpOf(Kind::kOpen));
      }
      Op op = OpOf(Kind::kAppend);
      op.foreign = shapes[a].second;
      op.events = (op.foreign ? foreign : native).NextBatch(shapes[a].first);
      ops.push_back(std::move(op));
    }
    ops.push_back(OpOf(Kind::kClose));
    for (Op& op : ops) op.stream = s;
  }
  std::vector<uint8_t> turns(streams[0].size(), 0);
  turns.insert(turns.end(), streams[1].size(), 1);
  Shuffle(&turns, &order);
  std::array<size_t, 2> next = {0, 0};
  for (uint8_t s : turns) in->ops.push_back(std::move(streams[s][next[s]++]));
}

/// The mixed workload's composition for an op budget of `n`: 30% Register,
/// 10% Replace, 10% Unregister (of the connection's own contracts), 35%
/// Query and 15% as-of Query, every hot text the same number of times in
/// each query kind.
struct MixedShape {
  size_t registers;
  size_t replaces;
  size_t unregisters;
  size_t query_repeats;  ///< per hot text
  size_t asof_repeats;   ///< per hot text

  MixedShape(size_t n, size_t hot)
      : registers(Round(0.30 * static_cast<double>(n))),
        replaces(Round(0.10 * static_cast<double>(n))),
        unregisters(Round(0.10 * static_cast<double>(n))),
        query_repeats(Repeats(0.35, n, hot)),
        asof_repeats(Repeats(0.15, n, hot)) {}
  /// Register texts, then Replace texts: each used once.
  size_t write_texts() const { return registers + replaces; }
};

/// The mixed workload's op list. Every Register and Replace text is used
/// exactly once; the seed orders the ops and picks the targets.
void MakeMixedOps(const MixedShape& shape, uint64_t seed, Inputs* in) {
  Rng rng(seed ^ 0x313edull);
  std::vector<Kind> kinds(shape.registers, Kind::kRegister);
  kinds.insert(kinds.end(), shape.replaces, Kind::kReplace);
  kinds.insert(kinds.end(), shape.unregisters, Kind::kUnregister);
  kinds.insert(kinds.end(), shape.query_repeats * in->hot, Kind::kQuery);
  kinds.insert(kinds.end(), shape.asof_repeats * in->hot, Kind::kAsOf);
  Shuffle(&kinds, &rng);
  // The connection replaces and unregisters only contracts it registered:
  // pull the next Register forward wherever it owns none yet. Registers
  // outnumber Unregisters, so a later one always exists.
  size_t owned = 0;
  for (size_t i = 0; i < kinds.size(); ++i) {
    if ((kinds[i] == Kind::kReplace || kinds[i] == Kind::kUnregister) &&
        owned == 0) {
      auto reg = std::find(kinds.begin() + static_cast<ptrdiff_t>(i),
                           kinds.end(), Kind::kRegister);
      std::rotate(kinds.begin() + static_cast<ptrdiff_t>(i), reg, reg + 1);
    }
    if (kinds[i] == Kind::kRegister) ++owned;
    if (kinds[i] == Kind::kUnregister) --owned;
  }
  const std::vector<uint32_t> queries =
      SlotTexts(in->hot, shape.query_repeats, 0, 0, &rng);
  const std::vector<uint32_t> asofs =
      SlotTexts(in->hot, shape.asof_repeats, 0, 0, &rng);
  const std::vector<uint32_t> registers =
      SlotTexts(shape.registers, 1, 0, 0, &rng);
  const std::vector<uint32_t> replaces = SlotTexts(
      0, 0, shape.replaces, static_cast<uint32_t>(shape.registers), &rng);
  size_t next_query = 0;
  size_t next_asof = 0;
  size_t next_register = 0;
  size_t next_replace = 0;
  for (Kind k : kinds) {
    Op op = OpOf(k);
    op.pick = static_cast<uint32_t>(rng.Next());
    if (k == Kind::kQuery) op.texts = {queries[next_query++]};
    if (k == Kind::kAsOf) op.texts = {asofs[next_asof++]};
    if (k == Kind::kRegister) op.texts = {registers[next_register++]};
    if (k == Kind::kReplace) op.texts = {replaces[next_replace++]};
    in->ops.push_back(std::move(op));
  }
}

}  // namespace

Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                          double seconds) {
  Inputs in;
  in.seed = seed;
  in.hot = spec.hot;
  const size_t n = OpBudget(spec, seconds);
  size_t fresh = 0;
  size_t writes = 0;
  if (spec.name == "query") {
    const QueryShape shape(n, spec.hot);
    fresh = shape.fresh_singles(spec.hot) + shape.fresh_entries(spec.hot);
  }
  if (spec.name == "mixed-shard4") writes = MixedShape(n, spec.hot).write_texts();

  // The corpus, from the workload's fixed seed.
  TextSource contracts(spec.corpus_seed, spec.preload_properties,
                       spec.event_preload);
  TextSource write_source(spec.corpus_seed ^ 0x3417e5ull, 2, false);
  std::array<std::unique_ptr<TextSource>, 3> by_properties;
  std::array<Draw, 3> queries;
  const size_t texts = spec.hot + fresh;
  for (size_t p = 0; p < 3; ++p) {
    by_properties[p] = std::make_unique<TextSource>(
        spec.corpus_seed ^ (0x9e7ull * (p + 1)), p + 1, false);
    queries[p] = {by_properties[p].get(), (texts + 2 - p) / 3, {}, {}};
  }
  Draw preload{&contracts, spec.preload, {}, {}};
  Draw write_texts{&write_source, writes, {}, {}};
  CTDB_RETURN_NOT_OK(DrawAll(
      {&preload, &queries[0], &queries[1], &queries[2], &write_texts}));
  if (spec.priming) in.preload.push_back(PrimingLtl());
  in.preload.insert(in.preload.end(), preload.texts.begin(),
                    preload.texts.end());
  // Texts interleave by property count: 1, 2, 3, 1, ...
  for (size_t i = 0; i < texts; ++i) {
    in.queries.push_back(queries[i % 3].texts[i / 3]);
  }
  in.writes = std::move(write_texts.texts);

  // The op list, from the run's seed.
  if (spec.name == "query") {
    Rng rng(seed ^ 0x0b5ull);
    MakeQueryOps(QueryShape(n, spec.hot), spec.corpus_seed, &rng, &in);
  } else if (spec.name == "stream") {
    MakeStreamOps(n, seed, &in);
  } else {
    MakeMixedOps(MixedShape(n, spec.hot), seed, &in);
  }
  return in;
}

}  // namespace perfbench
