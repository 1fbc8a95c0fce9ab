#include "inputs.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "util/rng.h"

namespace svqa_bench {

using svqa::Rng;
using svqa::nlp::QuestionType;
using svqa::nlp::Spoc;
using svqa::nlp::SpocElement;
using svqa::query::DependencyKind;
using svqa::query::QueryEdge;
using svqa::query::QueryGraph;

namespace {

SpocElement El(std::string head, bool variable = false,
               bool want_kind = false) {
  SpocElement e;
  e.text = head;
  e.head = std::move(head);
  e.is_variable = variable;
  e.want_kind = want_kind;
  return e;
}

Spoc MakeSpoc(SpocElement subject, std::string predicate, SpocElement object,
              int clause_index = 0) {
  Spoc s;
  s.subject = std::move(subject);
  s.predicate = std::move(predicate);
  s.object = std::move(object);
  s.clause_index = clause_index;
  return s;
}

/// "harry-potter" -> "harry potter", "in-front-of" -> "in front of".
std::string Spaced(std::string name) {
  std::replace(name.begin(), name.end(), '-', ' ');
  return name;
}

template <typename T>
const T& Pick(const std::vector<T>& v, Rng* rng) {
  return v[rng->Below(v.size())];
}

/// One graph from a randomly chosen template family. Family weights
/// (percent): object judgment 40, object counting 20, kind reasoning 10,
/// character questions 10, two-clause judgment 15, three-clause 5.
QueryGraph Instantiate(const svqa::data::World& world, Rng* rng) {
  const svqa::data::Vocabulary& v = world.vocab;
  const auto& objects = v.object_categories;
  const auto& preds = v.scene_predicates;
  const uint64_t family = rng->Below(100);
  if (family < 40) {
    const std::string s = Pick(objects, rng), p = Pick(preds, rng),
                      o = Pick(objects, rng);
    return QueryGraph("Does a " + s + " appear " + Spaced(p) + " a " + o + "?",
                      QuestionType::kJudgment,
                      {MakeSpoc(El(s), p, El(o))}, {});
  }
  if (family < 60) {
    const std::string s = Pick(objects, rng), p = Pick(preds, rng),
                      o = Pick(objects, rng);
    return QueryGraph(
        "How many " + s + "s are " + Spaced(p) + " the " + o + "?",
        QuestionType::kCounting, {MakeSpoc(El(s, true), p, El(o))}, {});
  }
  if (family < 70) {
    static const std::vector<std::string> kKinds = {"clothes", "animal",
                                                    "vehicle"};
    const std::string kind = Pick(kKinds, rng), p = Pick(preds, rng),
                      s = Pick(objects, rng);
    return QueryGraph("What kind of " + kind + " is " + Spaced(p) +
                          " by the " + s + "?",
                      QuestionType::kReasoning,
                      {MakeSpoc(El(s), p, El(kind, true, true))}, {});
  }
  if (family < 80) {
    const std::string c = Pick(world.characters, rng).name;
    const std::string clothing = Pick(v.clothing_categories, rng);
    switch (rng->Below(4)) {
      case 0:
        return QueryGraph(
            "What kind of clothes is worn by " + Spaced(c) + "?",
            QuestionType::kReasoning,
            {MakeSpoc(El(c), "wear", El("clothes", true, true))}, {});
      case 1:
        return QueryGraph(
            "How many wizards are hanging out with " + Spaced(c) + "?",
            QuestionType::kCounting,
            {MakeSpoc(El("wizard", true), "hang-out", El(c))}, {});
      case 2:
        return QueryGraph("Does the wizard that is hanging out with " +
                              Spaced(c) + " wear a " + clothing + "?",
                          QuestionType::kJudgment,
                          {MakeSpoc(El("wizard"), "wear", El(clothing)),
                           MakeSpoc(El("wizard"), "hang-out", El(c), 1)},
                          {QueryEdge{1, 0, DependencyKind::kS2S}});
      default: {
        const bool wizards = rng->Below(2) == 0;
        const std::string counted = wizards ? "wizard" : "person";
        const std::string wearer = wizards ? "person" : "wizard";
        return QueryGraph("How many " + counted +
                              "s are hanging out with the " + wearer +
                              " that is wearing a " + clothing + "?",
                          QuestionType::kCounting,
                          {MakeSpoc(El(counted, true), "hang-out",
                                    El(wearer)),
                           MakeSpoc(El(wearer), "wear", El(clothing), 1)},
                          {QueryEdge{1, 0, DependencyKind::kO2S}});
      }
    }
  }
  if (family < 95) {
    const std::string s = Pick(objects, rng), p1 = Pick(preds, rng),
                      m = Pick(objects, rng), p2 = Pick(preds, rng),
                      o = Pick(objects, rng);
    return QueryGraph("Does the " + s + " that is " + Spaced(p1) + " the " +
                          m + " appear " + Spaced(p2) + " the " + o + "?",
                      QuestionType::kJudgment,
                      {MakeSpoc(El(s), p2, El(o)),
                       MakeSpoc(El(s), p1, El(m), 1)},
                      {QueryEdge{1, 0, DependencyKind::kS2S}});
  }
  const std::string prop = Pick(objects, rng);
  return QueryGraph(
      "What kind of clothes are worn by the wizard who is hanging out with "
      "the person who is holding the " +
          prop + "?",
      QuestionType::kReasoning,
      {MakeSpoc(El("wizard"), "wear", El("clothes", true, true)),
       MakeSpoc(El("wizard"), "hang-out", El("person"), 1),
       MakeSpoc(El("person"), "hold", El(prop), 2)},
      {QueryEdge{1, 0, DependencyKind::kS2S},
       QueryEdge{2, 1, DependencyKind::kO2S}});
}

}  // namespace

std::vector<uint32_t> ShuffledOrder(std::size_t n, std::size_t blocks,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> order;
  order.reserve(n * blocks);
  std::vector<uint32_t> block(n);
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t i = 0; i < n; ++i) block[i] = static_cast<uint32_t>(i);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(block[i - 1], block[rng.Below(i)]);
    }
    order.insert(order.end(), block.begin(), block.end());
  }
  return order;
}

std::vector<QueryGraph> LongTailGraphs(const svqa::data::World& world,
                                       uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<QueryGraph> graphs;
  std::set<std::string> seen;
  // The template space holds tens of thousands of distinct questions, so
  // duplicates are rare and the loop ends after ~count draws.
  while (graphs.size() < count) {
    QueryGraph g = Instantiate(world, &rng);
    if (seen.insert(g.question()).second) graphs.push_back(std::move(g));
  }
  return graphs;
}

}  // namespace svqa_bench
