// Characterization test for pruning-condition extraction (Algorithm 1).
//
// Every condition extracted from a seeded corpus of generated 1–3-property
// queries — under all four path × cycle mode combinations, and once with a
// size cap small enough to force the overflow-to-TRUE path — must keep its
// exact (Size(), ToString()). Renderings reach tens of kilobytes, so the
// golden file records each one's length and FNV-1a digest, not the text.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/pruning.h"
#include "util/hash.h"
#include "workload/generator.h"

namespace ctdb::index {
namespace {

constexpr uint64_t kCorpusSeed = 0x9e7;
constexpr size_t kQueriesPerPropertyCount = 24;
constexpr size_t kOverflowCap = 16;

struct Config {
  const char* name;
  PathConditionMode path;
  CycleConditionMode cycle;
  size_t max_condition_size;
};

constexpr size_t kDefaultCap = PruningOptions{}.max_condition_size;

// The first entry is the default configuration.
constexpr Config kConfigs[] = {
    {"condensation/incoming", PathConditionMode::kCondensation,
     CycleConditionMode::kIncomingApprox, kDefaultCap},
    {"condensation/bounded", PathConditionMode::kCondensation,
     CycleConditionMode::kBoundedCycles, kDefaultCap},
    {"state-paths/incoming", PathConditionMode::kMemoizedStatePaths,
     CycleConditionMode::kIncomingApprox, kDefaultCap},
    {"state-paths/bounded", PathConditionMode::kMemoizedStatePaths,
     CycleConditionMode::kBoundedCycles, kDefaultCap},
    {"default/cap16", PathConditionMode::kCondensation,
     CycleConditionMode::kIncomingApprox, kOverflowCap},
};

struct Corpus {
  std::string rendering;  ///< the golden file's expected contents
  size_t max_transitions = 0;
  size_t overflows = 0;   ///< cap16 conditions that collapsed to TRUE
};

/// Per query: a header line with its shape and LTL text, then one line per
/// configuration with the condition's size, rendering length and digest.
Corpus RenderCorpus() {
  Corpus corpus;
  Vocabulary vocab;
  ltl::FormulaFactory factory;
  std::ostringstream out;
  size_t q = 0;
  for (size_t properties = 1; properties <= 3; ++properties) {
    workload::GeneratorOptions options;
    options.properties = properties;
    workload::SpecGenerator gen(options, kCorpusSeed + properties, &vocab,
                                &factory);
    for (size_t i = 0; i < kQueriesPerPropertyCount; ++i, ++q) {
      auto spec = gen.Next();
      if (!spec.ok()) {
        out << "q" << q << " error " << spec.status().ToString() << "\n";
        continue;
      }
      const automata::Buchi& ba = spec->automaton;
      corpus.max_transitions =
          std::max(corpus.max_transitions, ba.TransitionCount());
      out << "q" << q << " properties=" << properties
          << " states=" << ba.StateCount()
          << " transitions=" << ba.TransitionCount() << " " << spec->text
          << "\n";
      size_t default_size = 0;
      for (const Config& config : kConfigs) {
        PruningOptions pruning;
        pruning.path_mode = config.path;
        pruning.cycle_mode = config.cycle;
        pruning.max_condition_size = config.max_condition_size;
        const Condition c = ExtractPruningCondition(ba, pruning);
        const std::string text = c.ToString(vocab);
        char digest[17];
        std::snprintf(digest, sizeof digest, "%016" PRIx64,
                      HashRange(text.begin(), text.end()));
        out << "  " << config.name << " size=" << c.Size()
            << " chars=" << text.size() << " fnv=" << digest << "\n";
        if (&config == &kConfigs[0]) default_size = c.Size();
        if (config.max_condition_size == kOverflowCap &&
            default_size > kOverflowCap &&
            c.kind() == Condition::Kind::kTrue) {
          ++corpus.overflows;
        }
      }
    }
  }
  corpus.rendering = out.str();
  return corpus;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(PruningGoldenTest, CorpusConditionsMatchGolden) {
  const std::string path =
      std::string(CTDB_TESTDATA_DIR) + "/pruning_conditions.golden";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot open " << path;
  std::stringstream golden;
  golden << in.rdbuf();

  const Corpus corpus = RenderCorpus();
  // The corpus must reach the shapes the golden is meant to pin down.
  EXPECT_GE(corpus.max_transitions, 1000u);
  EXPECT_GT(corpus.overflows, 0u);

  const std::vector<std::string> want = Lines(golden.str());
  const std::vector<std::string> got = Lines(corpus.rendering);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "golden line " << i + 1;
  }
}

}  // namespace
}  // namespace ctdb::index
