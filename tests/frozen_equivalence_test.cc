// The FrozenGraph engine against a naive reference oracle (TEST_P over
// world seeds). tests/reference_evaluator.h runs Algorithm 3 by brute
// force over the mutable graph::Graph that the engine's snapshot is
// compiled from ("mutable" in the test names); the engine must answer
// every question exactly as it does — serially with and without a
// cache, with the label index on and off, in simulated and threaded
// batches, and under deterministic fault injection with retries. The
// workload exercises hyponym expansion, possessive resolution,
// constraints, every question type, and near-miss (Levenshtein)
// vocabulary.
//
// The charged cost model is pinned separately: per seed, the serial LFU
// run's total virtual micros, per-kind op counts and cache counters are
// constants. A change that moves one changes the cost model the paper's
// figures are reproduced with.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "data/mvqa_generator.h"
#include "exec/batch_executor.h"
#include "exec/executor.h"
#include "reference_evaluator.h"
#include "text/lexicon.h"
#include "util/fault_injector.h"

namespace svqa::exec {
namespace {

/// The cost kinds the executor charges; every other kind must stay 0.
const CostKind kChargedKinds[] = {
    CostKind::kVertexCompare, CostKind::kEdgeTraverse,
    CostKind::kLevenshtein,   CostKind::kEmbeddingSim,
    CostKind::kCacheProbe,
};

/// Serial LFU run (capacity kPinnedCapacity) over one seed's workload.
struct CostPin {
  uint64_t seed;
  double total_micros;
  double ops[std::size(kChargedKinds)];
  cache::CacheStats scope;  ///< hits, misses, evictions
  cache::CacheStats path;
};

constexpr std::size_t kPinnedCapacity = 16;

cache::CacheStats Counters(uint64_t hits, uint64_t misses,
                           uint64_t evictions) {
  cache::CacheStats stats;
  stats.hits = hits;
  stats.misses = misses;
  stats.evictions = evictions;
  return stats;
}

const CostPin kPins[] = {
    {3, 144847.89999999912, {3841, 8554, 3132, 248, 2332},
     Counters(170, 97, 81), Counters(27, 98, 82)},
    {17, 138865.89999999918, {3885, 8104, 3186, 302, 2467},
     Counters(167, 100, 84), Counters(26, 99, 83)},
    {404, 137373.59999999899, {3648, 8069, 3030, 281, 2408},
     Counters(168, 97, 81), Counters(29, 96, 80)},
};

nlp::SpocElement El(std::string head, bool variable = false) {
  nlp::SpocElement e;
  e.text = head;
  e.head = std::move(head);
  e.is_variable = variable;
  return e;
}

class FrozenEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    data::MvqaOptions opts;
    opts.world.num_scenes = 60;
    opts.world.seed = GetParam();
    opts.seed = GetParam() * 31 + 7;
    dataset_ = std::make_unique<data::MvqaDataset>(
        data::MvqaGenerator(opts).Generate());
    embeddings_ = std::make_unique<text::EmbeddingModel>(
        text::SynonymLexicon::Default());
    graphs_ = Workload();
    const reference::Evaluator oracle(&graph(), embeddings_.get());
    for (const auto& gq : graphs_) {
      Result<reference::Answer> expected = oracle.Evaluate(gq);
      ASSERT_TRUE(expected.ok()) << gq.question() << ": " << expected.status();
      expected_.push_back(std::move(expected).ValueOrDie());
    }
  }

  const graph::Graph& graph() const { return dataset_->perfect_merged.graph; }

  /// The workload: every generated gold graph (hyponyms, possessives,
  /// constraints, all question types), hand-typoed near-miss judgments
  /// that force the Levenshtein fallback scan, and probes built from the
  /// graph alone. The generator keeps only questions the engine answers
  /// non-trivially, so an engine bug can drop the questions that would
  /// expose it; the probes do not depend on the engine. Detection probes
  /// count and reason over anonymous scene detections ("dog#3"), which
  /// count only as kinds and answer by category; possessive probes
  /// resolve "<owner>'s girlfriend/friend" through a KG edge and same-as
  /// links to scene appearances.
  std::vector<query::QueryGraph> Workload() const {
    std::vector<query::QueryGraph> graphs;
    for (const auto& q : dataset_->questions) {
      graphs.push_back(q.gold_graph);
    }
    std::vector<std::string> typoed;
    for (graph::VertexId v = 0; v < graph().num_vertices() && typoed.size() < 6;
         ++v) {
      std::string cat = graph().vertex(v).category;
      if (cat.size() < 4) continue;
      char& c = cat[cat.size() / 2];
      c = c == 'z' ? 'a' : static_cast<char>(c + 1);
      if (std::find(typoed.begin(), typoed.end(), cat) != typoed.end()) {
        continue;
      }
      typoed.push_back(cat);
      nlp::Spoc spoc;
      spoc.subject = El(cat);
      spoc.predicate = "chases";
      spoc.object = El("animal", /*variable=*/true);
      graphs.emplace_back("near-miss " + cat, nlp::QuestionType::kJudgment,
                          std::vector<nlp::Spoc>{spoc},
                          std::vector<query::QueryEdge>{});
    }
    std::vector<nlp::Spoc> probes;  // (detection category, label, category)
    for (graph::VertexId v = 0; v < graph().num_vertices() && probes.size() < 4;
         ++v) {
      if (graph().vertex(v).label.find('#') == std::string::npos) continue;
      for (const graph::HalfEdge& he : graph().OutEdges(v)) {
        nlp::Spoc spoc;
        spoc.subject = El(graph().vertex(v).category);
        spoc.predicate = std::string(graph().EdgeLabelName(he.label));
        spoc.object = El(graph().vertex(he.neighbor).category);
        if (spoc.predicate == "is-a" || spoc.predicate == "instance-of" ||
            spoc.predicate == "same-as") {
          continue;
        }
        const bool seen = std::any_of(
            probes.begin(), probes.end(), [&spoc](const nlp::Spoc& p) {
              return p.subject.head == spoc.subject.head &&
                     p.predicate == spoc.predicate &&
                     p.object.head == spoc.object.head;
            });
        if (!seen) probes.push_back(spoc);
        break;
      }
    }
    for (const nlp::Spoc& probe : probes) {
      const std::string text = probe.subject.head + " " + probe.predicate +
                               " " + probe.object.head;
      nlp::Spoc who = probe;
      who.subject.is_variable = true;
      graphs.emplace_back("how many: " + text, nlp::QuestionType::kCounting,
                          std::vector<nlp::Spoc>{who},
                          std::vector<query::QueryEdge>{});
      nlp::Spoc kinds = who;
      kinds.subject.want_kind = true;
      graphs.emplace_back("how many kinds: " + text,
                          nlp::QuestionType::kCounting,
                          std::vector<nlp::Spoc>{kinds},
                          std::vector<query::QueryEdge>{});
      nlp::Spoc what = probe;
      what.object.is_variable = true;
      graphs.emplace_back("what: " + text, nlp::QuestionType::kReasoning,
                          std::vector<nlp::Spoc>{what},
                          std::vector<query::QueryEdge>{});
    }
    std::vector<nlp::SpocElement> possessives;
    for (graph::VertexId v = 0;
         v < graph().num_vertices() && possessives.size() < 4; ++v) {
      for (const graph::HalfEdge& he : graph().InEdges(v)) {
        const std::string_view label = graph().EdgeLabelName(he.label);
        if (label != "girlfriend-of" && label != "friend-of") continue;
        nlp::SpocElement el = El(std::string(label.substr(0, label.find('-'))));
        el.owner = graph().vertex(v).label;
        std::replace(el.owner.begin(), el.owner.end(), '-', ' ');
        possessives.push_back(el);
        break;
      }
    }
    for (const nlp::SpocElement& el : possessives) {
      const std::string text = el.owner + "'s " + el.head;
      nlp::Spoc wears;
      wears.subject = el;
      wears.predicate = "wear";
      wears.object = El("clothes", /*variable=*/true);
      wears.object.want_kind = true;
      graphs.emplace_back("what does " + text + " wear",
                          nlp::QuestionType::kReasoning,
                          std::vector<nlp::Spoc>{wears},
                          std::vector<query::QueryEdge>{});
      nlp::Spoc company;
      company.subject = El("wizard", /*variable=*/true);
      company.predicate = "hang-out";
      company.object = el;
      graphs.emplace_back("how many wizards hang out with " + text,
                          nlp::QuestionType::kCounting,
                          std::vector<nlp::Spoc>{company},
                          std::vector<query::QueryEdge>{});
    }
    return graphs;
  }

  QueryGraphExecutor MakeExecutor(KeyCentricCache* cache,
                                  ExecutorOptions options = {}) const {
    return QueryGraphExecutor(&dataset_->perfect_merged, embeddings_.get(),
                              cache, options);
  }

  /// Holds one engine answer to the oracle's: every order-free field
  /// exactly; provenance is scan-ordered, so it must be a sample of
  /// min(kMaxProvenance, |surviving pairs|) of the oracle's main-clause
  /// pairs (as a multiset).
  void ExpectMatchesOracle(const Answer& got, std::size_t query,
                           const std::string& config) const {
    const reference::Answer& want = expected_[query];
    SCOPED_TRACE(config + ", query " + std::to_string(query) + ": " +
                 graphs_[query].question());
    EXPECT_EQ(got.type, want.type);
    EXPECT_EQ(got.text, want.text);
    EXPECT_EQ(got.yes, want.yes);
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.entities, want.entities);
    ASSERT_EQ(got.provenance.size(),
              std::min(Answer::kMaxProvenance, want.main_pairs.size()));
    using Fact = std::tuple<int32_t, std::string, std::string, std::string>;
    std::map<Fact, int> unused;
    for (const reference::Pair& p : want.main_pairs) {
      const graph::Vertex& s = graph().vertex(p.subject);
      const graph::Vertex& o = graph().vertex(p.object);
      const int32_t image = s.source_image != graph::kKnowledgeGraphSource
                                ? s.source_image
                                : o.source_image;
      ++unused[Fact{image, s.label, p.predicate, o.label}];
    }
    for (const SupportFact& fact : got.provenance) {
      int& left = unused[Fact{fact.image, fact.subject, fact.predicate,
                              fact.object}];
      EXPECT_GT(left, 0) << "fact not among the oracle's pairs: "
                         << fact.ToString();
      --left;
    }
  }

  std::unique_ptr<data::MvqaDataset> dataset_;
  std::unique_ptr<text::EmbeddingModel> embeddings_;
  std::vector<query::QueryGraph> graphs_;
  std::vector<reference::Answer> expected_;
};

TEST_P(FrozenEquivalenceTest, SerialAnswersChargesAndCacheCountersMatch) {
  struct Config {
    const char* name;
    bool cache;
    CachePolicy policy;
    bool label_index;
  };
  const Config configs[] = {
      {"no cache", false, CachePolicy::kLfu, true},
      {"LFU", true, CachePolicy::kLfu, true},
      {"LRU", true, CachePolicy::kLru, true},
      {"LFU, label index off", true, CachePolicy::kLfu, false},
  };
  for (const Config& config : configs) {
    KeyCentricCacheOptions copts;
    copts.capacity = kPinnedCapacity;
    copts.policy = config.policy;
    KeyCentricCache cache(copts);
    ExecutorOptions eopts;
    eopts.matcher.use_label_index = config.label_index;
    const QueryGraphExecutor executor =
        MakeExecutor(config.cache ? &cache : nullptr, eopts);
    SimClock total;  // every query charges one clock, in workload order
    for (std::size_t i = 0; i < graphs_.size(); ++i) {
      const Result<Answer> got = executor.Execute(graphs_[i], &total);
      ASSERT_TRUE(got.ok()) << config.name << ": " << got.status();
      ExpectMatchesOracle(*got, i, config.name);
    }
    if (config.cache && config.policy == CachePolicy::kLfu &&
        config.label_index) {
      const CostPin* pin = std::find_if(
          std::begin(kPins), std::end(kPins),
          [](const CostPin& p) { return p.seed == GetParam(); });
      ASSERT_NE(pin, std::end(kPins));
      EXPECT_DOUBLE_EQ(total.ElapsedMicros(), pin->total_micros);
      for (std::size_t k = 0; k < std::size(kChargedKinds); ++k) {
        EXPECT_EQ(total.OpCount(kChargedKinds[k]), pin->ops[k]) << "kind " << k;
      }
      for (int k = 0; k < static_cast<int>(CostKind::kNumKinds); ++k) {
        const auto kind = static_cast<CostKind>(k);
        if (std::find(std::begin(kChargedKinds), std::end(kChargedKinds),
                      kind) == std::end(kChargedKinds)) {
          EXPECT_EQ(total.OpCount(kind), 0) << "kind " << k;
        }
      }
      const cache::CacheStats scope = cache.ScopeStats();
      const cache::CacheStats path = cache.PathStats();
      EXPECT_EQ(scope.hits, pin->scope.hits);
      EXPECT_EQ(scope.misses, pin->scope.misses);
      EXPECT_EQ(scope.evictions, pin->scope.evictions);
      EXPECT_EQ(path.hits, pin->path.hits);
      EXPECT_EQ(path.misses, pin->path.misses);
      EXPECT_EQ(path.evictions, pin->path.evictions);
    }
  }
}

TEST_P(FrozenEquivalenceTest, BatchMatchesMutableAcrossWorkerCounts) {
  struct Config {
    BatchMode mode;
    std::size_t workers;
  };
  std::vector<double> serial_latencies;
  for (const Config config : {Config{BatchMode::kSimulated, 1},
                              Config{BatchMode::kSimulated, 4},
                              Config{BatchMode::kThreaded, 4}}) {
    const std::string name = std::string(BatchModeName(config.mode)) + " x" +
                             std::to_string(config.workers);
    KeyCentricCache cache;
    const QueryGraphExecutor executor = MakeExecutor(&cache);
    BatchOptions bopts;
    bopts.mode = config.mode;
    bopts.num_workers = config.workers;
    const BatchResult result =
        BatchExecutor(&executor, bopts).ExecuteAll(graphs_);
    ASSERT_EQ(result.outcomes.size(), graphs_.size());
    for (std::size_t i = 0; i < graphs_.size(); ++i) {
      const QueryOutcome& outcome = result.outcomes[i];
      ASSERT_TRUE(outcome.status.ok()) << name << ": " << outcome.status;
      ExpectMatchesOracle(outcome.answer, i, name);
      // Simulated mode replays one global order, so virtual latencies
      // cannot depend on the worker count.
      if (config.mode != BatchMode::kSimulated) continue;
      if (config.workers == 1) {
        serial_latencies.push_back(outcome.latency_micros);
      } else {
        EXPECT_DOUBLE_EQ(outcome.latency_micros, serial_latencies[i])
            << name << ", query " << i;
      }
    }
  }
}

TEST_P(FrozenEquivalenceTest, FaultInjectionAndRetriesMatch) {
  const FaultInjector injector(GetParam() * 101 + 13,
                               FaultConfig::Uniform(0.05));
  ResilienceOptions resilience;
  resilience.fault_policy = &injector;
  resilience.retry.max_attempts = 3;

  KeyCentricCache cache;
  const QueryGraphExecutor executor = MakeExecutor(&cache);
  std::size_t answered = 0;
  for (std::size_t i = 0; i < graphs_.size(); ++i) {
    SimClock clock;
    const Result<Answer> got = executor.ExecuteResilient(
        graphs_[i], &clock, resilience, static_cast<uint64_t>(i));
    if (!got.ok()) continue;  // faults may exhaust the retries
    ++answered;
    ExpectMatchesOracle(*got, i, "faults 0.05, 3 attempts");
  }
  // The run must exercise both sides: injected faults, and answers.
  uint64_t injected = 0;
  for (int site = 0; site < kNumFaultSites; ++site) {
    injected += injector.injected(static_cast<FaultSite>(site));
  }
  EXPECT_GT(injected, 0u);
  EXPECT_GT(answered, graphs_.size() / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrozenEquivalenceTest,
                         ::testing::Values(3u, 17u, 404u));

}  // namespace
}  // namespace svqa::exec
