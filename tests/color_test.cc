// The attribute ("what color") extension: attribute vertices in scene
// graphs, the KG color taxonomy, the copular-attribute extraction rule,
// and the end-to-end color pipeline.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/evaluation.h"
#include "data/kg_builder.h"
#include "data/mvqa_generator.h"
#include "exec/vertex_matcher.h"
#include "query/query_graph_builder.h"
#include "text/lexicon.h"

namespace svqa {
namespace {

TEST(ColorSceneGraphTest, PerfectGraphCarriesAttributes) {
  vision::Scene scene;
  scene.id = 1;
  vision::SceneObject robe;
  robe.category = "robe";
  robe.attributes = {"red"};
  robe.box = {0.4f, 0.4f, 0.2f, 0.2f};
  scene.objects.push_back(robe);

  const graph::Graph g = data::PerfectSceneGraph(scene);
  ASSERT_EQ(g.num_vertices(), 2u);
  EXPECT_EQ(g.vertex(1).label, "red#0");
  EXPECT_EQ(g.vertex(1).category, "red");
  EXPECT_TRUE(g.HasEdge(0, 1, "has-attribute"));
}

TEST(ColorSceneGraphTest, NoisyGeneratorEmitsAttributes) {
  data::WorldOptions opts;
  opts.num_scenes = 30;
  const data::World world = data::WorldGenerator(opts).Generate();
  auto model = std::make_shared<vision::RelationModel>(
      vision::RelationModel::Kind::kNeuralMotifs,
      data::Vocabulary::Default().scene_predicates,
      vision::RelationModel::DefaultOptionsFor(
          vision::RelationModel::Kind::kNeuralMotifs));
  model->FitBias(world.scenes);
  vision::SceneGraphGenerator gen(vision::SimulatedDetector(), model,
                                  vision::InferenceMode::kTde);
  std::size_t attribute_edges = 0;
  for (const auto& scene : world.scenes) {
    attribute_edges += gen.Generate(scene).attribute_edges;
  }
  EXPECT_GT(attribute_edges, 0u);
}

TEST(ColorKgTest, TaxonomyLinksColorsToColorConcept) {
  data::WorldOptions opts;
  opts.num_scenes = 5;
  const data::World world = data::WorldGenerator(opts).Generate();
  const graph::Graph kg =
      data::BuildKnowledgeGraph(world, text::SynonymLexicon::Default());
  const auto reds = kg.VerticesWithLabel("red");
  ASSERT_EQ(reds.size(), 1u);
  const auto colors = kg.VerticesWithLabel("color");
  ASSERT_EQ(colors.size(), 1u);
  EXPECT_TRUE(kg.HasEdge(reds.front(), colors.front(), "is-a"));
  // Non-color attributes go under "attribute".
  const auto woodens = kg.VerticesWithLabel("wooden");
  const auto attrs = kg.VerticesWithLabel("attribute");
  ASSERT_EQ(woodens.size(), 1u);
  ASSERT_EQ(attrs.size(), 1u);
  EXPECT_TRUE(kg.HasEdge(woodens.front(), attrs.front(), "is-a"));
}

TEST(ColorExtractorTest, CopularColorQuestionRewrites) {
  const text::SynonymLexicon lexicon = text::SynonymLexicon::Default();
  query::QueryGraphBuilder builder(&lexicon);
  builder.RegisterEntityNames({"harry-potter"});
  auto parsed = builder.Build(
      "what is the color of the robe that is worn by harry potter?");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 2u);
  const nlp::Spoc& main = parsed->vertices()[0];
  EXPECT_EQ(main.subject.head, "robe");
  EXPECT_EQ(main.predicate, "has-attribute");
  EXPECT_EQ(main.object.head, "color");
  EXPECT_TRUE(main.object.is_variable);
  const nlp::Spoc& cond = parsed->vertices()[1];
  EXPECT_EQ(cond.subject.head, "harry-potter");
  EXPECT_EQ(cond.predicate, "wear");
  EXPECT_EQ(cond.object.head, "robe");
  ASSERT_EQ(parsed->edges().size(), 1u);
  EXPECT_EQ(parsed->edges()[0].kind, query::DependencyKind::kS2O);
}

class ColorEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::MvqaOptions opts;
    opts.world.num_scenes = 800;
    opts.num_color = 10;
    dataset_ = new data::MvqaDataset(data::MvqaGenerator(opts).Generate());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static data::MvqaDataset* dataset_;
};

data::MvqaDataset* ColorEndToEndTest::dataset_ = nullptr;

TEST_F(ColorEndToEndTest, ColorQuestionsGenerated) {
  int color_questions = 0;
  for (const auto& q : dataset_->questions) {
    if (q.text.find("color") != std::string::npos) ++color_questions;
  }
  EXPECT_EQ(color_questions, 10);
  EXPECT_EQ(dataset_->questions.size(), 110u);
}

TEST_F(ColorEndToEndTest, GoldAnswersAreColors) {
  const data::Vocabulary vocab = data::Vocabulary::Default();
  for (const auto& q : dataset_->questions) {
    if (q.text.find("color") == std::string::npos) continue;
    EXPECT_TRUE(vocab.IsColor(q.gold_answer))
        << q.text << " -> " << q.gold_answer;
  }
}

TEST_F(ColorEndToEndTest, NlPipelineAnswersMostColorQuestions) {
  core::SvqaEngine engine;
  ASSERT_TRUE(
      engine.Ingest(dataset_->knowledge_graph, dataset_->world.scenes)
          .ok());
  int right = 0, total = 0;
  for (const auto& q : dataset_->questions) {
    if (q.text.find("color") == std::string::npos) continue;
    ++total;
    auto ans = engine.Ask(q.text);
    if (ans.ok() && ans->text == q.gold_answer) ++right;
  }
  ASSERT_EQ(total, 10);
  EXPECT_GE(right, 7) << right << "/" << total;
}

TEST(ColorConstraintTest, AdjectiveBecomesAttributeFilter) {
  const text::SynonymLexicon lexicon = text::SynonymLexicon::Default();
  query::QueryGraphBuilder builder(&lexicon);
  builder.RegisterEntityNames({"harry-potter"});
  auto parsed = builder.Build("does harry potter wear a red robe?");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 1u);
  const nlp::Spoc& spoc = parsed->vertices()[0];
  EXPECT_EQ(spoc.object.head, "robe");
  EXPECT_EQ(spoc.object.attribute, "red");
  // Non-color adjectives stay descriptive.
  auto plain = builder.Build("does harry potter wear a big robe?");
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->vertices()[0].object.attribute.empty());
}

TEST(ColorConstraintTest, MatcherFiltersByAttribute) {
  // Two robes, one red and one blue, in a tiny hand-built world.
  data::World world;
  world.vocab = data::Vocabulary::Default();
  vision::Scene scene;
  scene.id = 0;
  vision::SceneObject red_robe, blue_robe;
  red_robe.category = "robe";
  red_robe.attributes = {"red"};
  red_robe.box = {0.1f, 0.1f, 0.2f, 0.2f};
  blue_robe.category = "robe";
  blue_robe.attributes = {"blue"};
  blue_robe.box = {0.6f, 0.6f, 0.2f, 0.2f};
  scene.objects = {red_robe, blue_robe};
  world.scenes.push_back(scene);

  const graph::Graph kg =
      data::BuildKnowledgeGraph(world, text::SynonymLexicon::Default());
  const auto merged = data::BuildPerfectMergedGraph(world, kg);
  text::EmbeddingModel embeddings(text::SynonymLexicon::Default());
  const auto frozen = merged.graph.Freeze();
  exec::VertexMatcher matcher(frozen.get(), &embeddings);

  nlp::SpocElement any_robe;
  any_robe.head = "robe";
  any_robe.text = "robe";
  nlp::SpocElement red;
  red.head = "robe";
  red.text = "red robe";
  red.attribute = "red";

  const auto all = matcher.Match(any_robe);
  const auto only_red = matcher.Match(red);
  EXPECT_GT(all.size(), only_red.size());
  ASSERT_FALSE(only_red.empty());
  for (graph::VertexId v : only_red) {
    bool has_red = false;
    for (const auto& he : merged.graph.OutEdges(v)) {
      if (merged.graph.EdgeLabelName(he.label) == "has-attribute" &&
          merged.graph.vertex(he.neighbor).category == "red") {
        has_red = true;
      }
    }
    EXPECT_TRUE(has_red);
  }
}

TEST(ColorConstraintTest, ScopeKeyEncodesAttribute) {
  nlp::SpocElement el;
  el.head = "robe";
  el.attribute = "red";
  EXPECT_EQ(exec::VertexMatcher::ScopeKey(el), "scope:robe|attr=red");
}

TEST_F(ColorEndToEndTest, ColoredJudgmentMatchesGold) {
  core::SvqaEngine engine;
  ASSERT_TRUE(
      engine.Ingest(dataset_->knowledge_graph, dataset_->world.scenes)
          .ok());
  // Gold semantics on the perfect graph, NL pipeline on the noisy one;
  // they agree for most characters (noise can flip a few).
  text::EmbeddingModel embeddings(text::SynonymLexicon::Default());
  exec::QueryGraphExecutor gold_exec(&dataset_->perfect_merged,
                                     &embeddings);
  int agree = 0, total = 0;
  for (const auto& c : dataset_->world.characters) {
    if (total >= 10) break;
    ++total;
    const std::string q =
        "does " + [&] {
          std::string n = c.name;
          std::replace(n.begin(), n.end(), '-', ' ');
          return n;
        }() + " wear a " + c.clothing_color + " " + c.clothing + "?";
    nlp::Spoc spoc;
    spoc.subject.head = c.name;
    spoc.subject.text = c.name;
    spoc.predicate = "wear";
    spoc.object.head = c.clothing;
    spoc.object.text = c.clothing;
    spoc.object.attribute = c.clothing_color;
    query::QueryGraph gold(q, nlp::QuestionType::kJudgment, {spoc}, {});
    auto expected = gold_exec.Execute(gold);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(expected->text, "yes") << q;  // signature color holds
    auto actual = engine.Ask(q);
    if (actual.ok() && actual->text == expected->text) ++agree;
  }
  EXPECT_GE(agree, 7) << agree << "/" << total;
}

TEST(ColorDefaultTest, DisabledByDefault) {
  // num_color = 0 reproduces the paper's 100-question MVQA exactly.
  data::MvqaOptions opts;
  opts.world.num_scenes = 700;
  const data::MvqaDataset ds = data::MvqaGenerator(opts).Generate();
  for (const auto& q : ds.questions) {
    EXPECT_EQ(q.text.find("the color of"), std::string::npos) << q.text;
  }
}

}  // namespace
}  // namespace svqa
