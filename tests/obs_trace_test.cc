// Trace-stream tests (obs/trace.h): span nesting and attributes, a golden
// JSON-lines trace for one fixed query (timestamps scrubbed, ids
// normalized), ValidateTrace consistency checks, and — following the
// differential_test.cc convention that every oracle must be proven live — a
// fault-injection sink that silently drops one span and must be caught.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "broker/database.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace ctdb::obs {
namespace {

#if CTDB_OBS

/// Installs a sink for the test's scope; always restores the previous one.
class ScopedSink {
 public:
  explicit ScopedSink(TraceSink* sink) : previous_(GetTraceSink()) {
    SetTraceSink(sink);
  }
  ~ScopedSink() { SetTraceSink(previous_); }

 private:
  TraceSink* previous_;
};

/// Reduces a trace to its structural skeleton — "name(parent-name)" in
/// emission order with timestamps/ids dropped — so golden comparisons are
/// stable across machines and runs.
std::vector<std::string> Skeleton(const std::vector<TraceEvent>& events) {
  std::vector<std::string> out;
  for (const TraceEvent& e : events) {
    std::string parent = "-";
    for (const TraceEvent& p : events) {
      if (p.span_id == e.parent_id) {
        parent = p.name;
        break;
      }
    }
    out.push_back(e.name + "(" + parent + ")");
  }
  return out;
}

TEST(ObsTraceTest, SpansNestAndEmitChildFirst) {
  VectorSink sink;
  ScopedSink scoped(&sink);
  {
    TraceSpan root("root");
    root.AddAttr("k", 7);
    {
      TraceSpan child("child");
      TraceSpan grandchild("grandchild");
    }
    TraceSpan sibling("sibling");
  }
  const std::vector<TraceEvent> events = sink.Events();
  ASSERT_EQ(events.size(), 4u);
  // Destruction order: grandchild, child, sibling, root.
  EXPECT_EQ(events[0].name, "grandchild");
  EXPECT_EQ(events[1].name, "child");
  EXPECT_EQ(events[2].name, "sibling");
  EXPECT_EQ(events[3].name, "root");
  EXPECT_EQ(events[0].parent_id, events[1].span_id);
  EXPECT_EQ(events[1].parent_id, events[3].span_id);
  EXPECT_EQ(events[2].parent_id, events[3].span_id);
  EXPECT_EQ(events[3].parent_id, 0u);       // root
  EXPECT_EQ(events[3].children, 2u);        // child + sibling
  EXPECT_EQ(events[1].children, 1u);        // grandchild
  ASSERT_EQ(events[3].attrs.size(), 1u);
  EXPECT_EQ(events[3].attrs[0].first, "k");
  EXPECT_EQ(events[3].attrs[0].second, 7u);
  EXPECT_TRUE(ValidateTrace(events).empty());
}

TEST(ObsTraceTest, NoSinkMeansInactiveSpans) {
  ASSERT_EQ(GetTraceSink(), nullptr);
  TraceSpan span("untraced");
  EXPECT_FALSE(span.active());
}

TEST(ObsTraceTest, FormatTraceEventIsJson) {
  TraceEvent e;
  e.name = "with\"quote";
  e.span_id = 3;
  e.parent_id = 1;
  e.children = 0;
  e.attrs.emplace_back("candidates", 12);
  const std::string json = FormatTraceEvent(e);
  EXPECT_NE(json.find("\"with\\\"quote\""), std::string::npos);
  EXPECT_NE(json.find("\"candidates\":12"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ObsTraceTest, JsonLinesSinkWritesOneObjectPerLine) {
  std::ostringstream out;
  JsonLinesSink sink(&out);
  ScopedSink scoped(&sink);
  {
    TraceSpan root("a");
    TraceSpan child("b");
  }
  std::istringstream lines(out.str());
  std::string line;
  size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(n, 2u);
}

// The golden trace of one fixed query against a fixed two-contract
// database. The skeleton (names + parentage in emission order) is part of
// the observability contract: a renamed or dropped pipeline span breaks
// consumers, so changing it must be a conscious act.
TEST(ObsTraceTest, GoldenQueryTraceSkeleton) {
  const bool was_enabled = Enabled();
  SetEnabled(true);
  VectorSink sink;
  ScopedSink scoped(&sink);

  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("allows", "G(p -> F q)").ok());
  ASSERT_TRUE(db.Register("forbids_q", "G(!q)").ok());
  sink.Clear();  // registration spans checked elsewhere; golden = query only

  ASSERT_TRUE(db.Query("F q").ok());
  SetEnabled(was_enabled);

  const std::vector<TraceEvent> events = sink.Events();
  EXPECT_TRUE(ValidateTrace(events).empty());
  const std::vector<std::string> golden = {
      "translate(query)",
      "query.prefilter(query)",
      "query.permission(query)",
      "query(-)",
  };
  EXPECT_EQ(Skeleton(events), golden);

  // The prefilter span names the condition that it evaluated.
  const TraceEvent& prefilter = events[1];
  ASSERT_EQ(prefilter.attrs.size(), 3u);
  EXPECT_EQ(prefilter.attrs[0].first, "candidates");
  EXPECT_EQ(prefilter.attrs[1].first, "condition_size");
  EXPECT_GE(prefilter.attrs[1].second, 1u);
  EXPECT_EQ(prefilter.attrs[2].first, "overflow");
  EXPECT_EQ(prefilter.attrs[2].second, 0u);

  // The query root carries the outcome as attributes.
  const TraceEvent& root = events.back();
  ASSERT_EQ(root.attrs.size(), 2u);
  EXPECT_EQ(root.attrs[0].first, "candidates");
  EXPECT_EQ(root.attrs[1].first, "matches");
  EXPECT_EQ(root.attrs[1].second, 1u);
}

TEST(ObsTraceTest, GoldenRegistrationTraceSkeleton) {
  const bool was_enabled = Enabled();
  SetEnabled(true);
  VectorSink sink;
  ScopedSink scoped(&sink);

  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("allows", "G(p -> F q)").ok());
  SetEnabled(was_enabled);

  const std::vector<TraceEvent> events = sink.Events();
  EXPECT_TRUE(ValidateTrace(events).empty());
  const std::vector<std::string> golden = {
      "translate(register)",
      "register.projections(register.automaton)",
      "register.prefilter_insert(register.automaton)",
      "register.automaton(register)",
      "register(-)",
  };
  EXPECT_EQ(Skeleton(events), golden);
}

/// Forwards to a VectorSink but silently swallows the first event whose
/// name matches — the deliberate fault that must not go unnoticed.
class DroppingSink : public TraceSink {
 public:
  DroppingSink(VectorSink* inner, std::string drop)
      : inner_(inner), drop_(std::move(drop)) {}
  void Emit(const TraceEvent& event) override {
    if (!dropped_ && event.name == drop_) {
      dropped_ = true;
      return;
    }
    inner_->Emit(event);
  }
  bool dropped() const { return dropped_; }

 private:
  VectorSink* inner_;
  std::string drop_;
  bool dropped_ = false;
};

// "Prove the oracle is live" (differential_test.cc convention): a trace with
// a deliberately dropped span must fail validation — otherwise the clean
// golden tests above would pass vacuously on a broken validator.
TEST(ObsTraceTest, ValidatorCatchesDroppedSpan) {
  VectorSink inner;
  DroppingSink dropping(&inner, "query.prefilter");
  ScopedSink scoped(&dropping);

  const bool was_enabled = Enabled();
  SetEnabled(true);
  broker::ContractDatabase db;
  ASSERT_TRUE(db.Register("allows", "G(p -> F q)").ok());
  inner.Clear();
  ASSERT_TRUE(db.Query("F q").ok());
  SetEnabled(was_enabled);

  ASSERT_TRUE(dropping.dropped());  // the fault was actually injected
  const std::vector<std::string> violations = ValidateTrace(inner.Events());
  ASSERT_FALSE(violations.empty())
      << "a silently dropped span went undetected";
}

TEST(ObsTraceTest, ValidatorCatchesSyntheticCorruption) {
  // Duplicated ids and phantom parents, independent of the broker pipeline.
  TraceEvent a;
  a.name = "a";
  a.span_id = 1;
  TraceEvent b = a;  // duplicate id
  EXPECT_FALSE(ValidateTrace({a, b}).empty());

  TraceEvent orphan;
  orphan.name = "orphan";
  orphan.span_id = 2;
  orphan.parent_id = 99;  // no such span
  EXPECT_FALSE(ValidateTrace({orphan}).empty());

  EXPECT_TRUE(ValidateTrace({}).empty());
}

#endif  // CTDB_OBS

}  // namespace
}  // namespace ctdb::obs
