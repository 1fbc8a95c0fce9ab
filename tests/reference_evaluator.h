// A deliberately naive reference evaluator for Algorithm 3 (§V): it
// answers a query graph by brute force over the mutable graph::Graph,
// so tests can hold the engine (which reads a compiled FrozenGraph
// through indexes, caches, memos and arenas) to an independent oracle.
//
// Every step is a linear scan written from the paper's semantics:
//  - matchVertex: vertices whose canonical category or canonical label
//    (detection suffix "#n" stripped) is the canonical head; when none
//    is, the near-miss scan by normalized Levenshtein distance. Hyponyms
//    follow is-a / instance-of / same-as edges to a fixpoint. Possessives
//    ("harry potter's girlfriend") follow the edge label that is
//    embedding-closest to the head, in both directions from the owner.
//    An attribute keeps the candidates with a matching has-attribute
//    edge.
//  - getRelations: for every edge u -> w, (u, w, forward) when u is a
//    subject and w an object candidate, and (w, u, backward) when w is a
//    subject and u an object candidate.
//  - the predicate filter keeps pairs labeled by the predicate or a
//    lexicon synonym, else those labeled by maxScore's best edge label;
//    the constraint keeps the subject groups of extreme support.
//  - producers bind their consumers' roles; the main clause answers.
//
// It calls only the model's primitives with the default thresholds: the
// lexicon, EmbeddingModel::MostSimilar, text::NormalizedLevenshtein,
// exec::ResolveConstraint and QueryGraph::TopologicalOrder. No index,
// cache, memo, arena, FrozenGraph or SymbolTable.

#ifndef SVQA_TESTS_REFERENCE_EVALUATOR_H_
#define SVQA_TESTS_REFERENCE_EVALUATOR_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/constraints.h"
#include "exec/executor.h"
#include "graph/graph.h"
#include "query/query_graph.h"
#include "text/embedding.h"
#include "text/levenshtein.h"
#include "util/result.h"

namespace svqa::reference {

/// One relation pair, with its edge label as text.
struct Pair {
  graph::VertexId subject = 0;
  graph::VertexId object = 0;
  std::string predicate;
  bool forward = true;
};

/// The reference answer: the fields of exec::Answer that do not depend
/// on scan order, plus the main clause's surviving pairs (the universe
/// the engine's provenance sample is drawn from).
struct Answer {
  nlp::QuestionType type = nlp::QuestionType::kReasoning;
  std::string text;
  bool yes = false;
  int64_t count = 0;
  std::vector<std::string> entities;
  std::vector<Pair> main_pairs;
};

using VertexSet = std::set<graph::VertexId>;

class Evaluator {
 public:
  Evaluator(const graph::Graph* g, const text::EmbeddingModel* embeddings)
      : g_(*g), embeddings_(*embeddings), lexicon_(embeddings->lexicon()) {}

  Result<Answer> Evaluate(const query::QueryGraph& gq) const {
    if (gq.size() == 0) return Status::InvalidArgument("empty query graph");
    SVQA_ASSIGN_OR_RETURN(const std::vector<int> order, gq.TopologicalOrder());
    std::vector<std::optional<VertexSet>> subject_binding(gq.size());
    std::vector<std::optional<VertexSet>> object_binding(gq.size());
    Answer answer;
    for (const int u : order) {
      const nlp::Spoc& spoc = gq.vertices()[u];
      const VertexSet subjects = subject_binding[u].has_value()
                                     ? *subject_binding[u]
                                     : MatchVertex(spoc.subject);
      const VertexSet objects = object_binding[u].has_value()
                                    ? *object_binding[u]
                                    : MatchVertex(spoc.object);
      const std::vector<Pair> pairs =
          Constrain(FilterByPredicate(GetRelations(subjects, objects),
                                      spoc.predicate),
                    spoc.constraint);
      for (const query::QueryEdge& e : gq.edges()) {
        if (e.producer != u) continue;
        // kXY: the consumer's X role takes the producer's Y values.
        const bool from_subject = e.kind == query::DependencyKind::kS2S ||
                                  e.kind == query::DependencyKind::kO2S;
        const bool to_subject = e.kind == query::DependencyKind::kS2S ||
                                e.kind == query::DependencyKind::kS2O;
        VertexSet binding;
        for (const Pair& p : pairs) {
          binding.insert(from_subject ? p.subject : p.object);
        }
        (to_subject ? subject_binding : object_binding)[e.consumer] =
            std::move(binding);
      }
      if (u == 0) answer = MakeAnswer(gq.type(), spoc, pairs);
    }
    return answer;
  }

 private:
  /// matchVertex for one SPOC element.
  VertexSet MatchVertex(const nlp::SpocElement& element) const {
    if (element.head.empty()) return {};
    VertexSet out;
    if (!element.owner.empty()) {
      out = MatchPossessive(element);
    } else {
      out = MatchLabel(element.head);
    }
    // Hyponym closure: a vertex joins when it points at a member over a
    // taxonomy edge; repeat until nothing changes.
    for (bool grew = true; grew;) {
      grew = false;
      ForEachEdge([&](graph::VertexId src, graph::VertexId dst,
                      std::string_view label) {
        if (IsTaxonomyEdge(label) && out.count(dst) > 0 &&
            out.insert(src).second) {
          grew = true;
        }
      });
    }
    if (!element.attribute.empty()) {
      const std::string want = lexicon_.Canonical(element.attribute);
      VertexSet kept;
      ForEachEdge([&](graph::VertexId src, graph::VertexId dst,
                      std::string_view label) {
        if (label == "has-attribute" && out.count(src) > 0 &&
            lexicon_.Canonical(g_.vertex(dst).category) == want) {
          kept.insert(src);
        }
      });
      out = std::move(kept);
    }
    return out;
  }

  /// getRelations(Sub, Obj) as a multiset of pairs.
  std::vector<Pair> GetRelations(const VertexSet& subjects,
                                 const VertexSet& objects) const {
    std::vector<Pair> pairs;
    ForEachEdge([&](graph::VertexId u, graph::VertexId w,
                    std::string_view label) {
      if (subjects.count(u) > 0 && objects.count(w) > 0) {
        pairs.push_back(Pair{u, w, std::string(label), true});
      }
      if (subjects.count(w) > 0 && objects.count(u) > 0) {
        pairs.push_back(Pair{w, u, std::string(label), false});
      }
    });
    return pairs;
  }

  /// The normalized answer text of a vertex: its category when the kind
  /// is asked for or the vertex is an anonymous detection ("dog#3"), its
  /// label otherwise.
  std::string AnswerText(graph::VertexId v, bool want_kind) const {
    const graph::Vertex& vx = g_.vertex(v);
    return want_kind || IsAnonymous(v) ? vx.category : vx.label;
  }

  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (graph::VertexId v = 0; v < g_.num_vertices(); ++v) {
      for (const graph::HalfEdge& he : g_.OutEdges(v)) {
        fn(v, he.neighbor, g_.EdgeLabelName(he.label));
      }
    }
  }

  static bool IsTaxonomyEdge(std::string_view label) {
    return label == "is-a" || label == "instance-of" || label == "same-as";
  }

  bool IsAnonymous(graph::VertexId v) const {
    return g_.vertex(v).label.find('#') != std::string::npos;
  }

  std::string StrippedLabel(graph::VertexId v) const {
    const std::string& label = g_.vertex(v).label;
    return label.substr(0, label.find('#'));
  }

  VertexSet MatchLabel(const std::string& head) const {
    const std::string canon = lexicon_.Canonical(head);
    VertexSet exact;
    for (graph::VertexId v = 0; v < g_.num_vertices(); ++v) {
      if (lexicon_.Canonical(g_.vertex(v).category) == canon ||
          lexicon_.Canonical(StrippedLabel(v)) == canon) {
        exact.insert(v);
      }
    }
    if (!exact.empty()) return exact;
    const double threshold = defaults_.matcher.levenshtein_threshold;
    VertexSet near;
    for (graph::VertexId v = 0; v < g_.num_vertices(); ++v) {
      if (text::NormalizedLevenshtein(StrippedLabel(v), canon) <= threshold ||
          text::NormalizedLevenshtein(g_.vertex(v).category, canon) <=
              threshold) {
        near.insert(v);
      }
    }
    return near;
  }

  VertexSet MatchPossessive(const nlp::SpocElement& element) const {
    std::string owner_label = element.owner;  // KG labels are kebab-case
    std::replace(owner_label.begin(), owner_label.end(), ' ', '-');
    const VertexSet owners = MatchLabel(owner_label);
    if (owners.empty()) return {};
    const auto [best, score] =
        embeddings_.MostSimilar(element.head, g_.EdgeLabels());
    if (best < 0 || score < defaults_.matcher.edge_similarity_threshold) {
      return {};
    }
    const std::string& want = g_.EdgeLabels()[static_cast<std::size_t>(best)];
    VertexSet out;
    ForEachEdge([&](graph::VertexId src, graph::VertexId dst,
                    std::string_view label) {
      if (label != want) return;
      if (owners.count(dst) > 0) out.insert(src);
      if (owners.count(src) > 0) out.insert(dst);
    });
    return out;
  }

  std::vector<Pair> FilterByPredicate(std::vector<Pair> pairs,
                                      const std::string& predicate) const {
    std::vector<Pair> kept;
    for (const Pair& p : pairs) {
      if (p.predicate == predicate ||
          lexicon_.AreSynonyms(p.predicate, predicate)) {
        kept.push_back(p);
      }
    }
    if (!kept.empty() || pairs.empty()) return kept;
    const std::string label = MaxScoreLabel(predicate);
    for (const Pair& p : pairs) {
      if (p.predicate == label) kept.push_back(p);
    }
    return kept;
  }

  /// maxScore(predicate, getLabels(E_mg)): the label itself, else a
  /// lexicon synonym, else the embedding-closest label above threshold,
  /// else the raw predicate.
  std::string MaxScoreLabel(const std::string& predicate) const {
    const std::vector<std::string>& labels = g_.EdgeLabels();
    for (const std::string& label : labels) {
      if (label == predicate) return label;
    }
    for (const std::string& label : labels) {
      if (lexicon_.AreSynonyms(label, predicate)) return label;
    }
    const auto [best, score] = embeddings_.MostSimilar(predicate, labels);
    if (best >= 0 && score >= defaults_.predicate_similarity_threshold) {
      return labels[static_cast<std::size_t>(best)];
    }
    return predicate;
  }

  std::vector<Pair> Constrain(std::vector<Pair> pairs,
                              const std::string& constraint) const {
    if (constraint.empty() || pairs.empty()) return pairs;
    const exec::ConstraintSpec spec =
        exec::ResolveConstraint(constraint, embeddings_);
    if (spec.kind == exec::ConstraintKind::kNone) return pairs;
    std::map<std::string, std::vector<Pair>> groups;
    for (const Pair& p : pairs) {
      groups[AnswerText(p.subject, /*want_kind=*/false)].push_back(p);
    }
    std::size_t extreme = groups.begin()->second.size();
    for (const auto& [key, group] : groups) {
      extreme = spec.kind == exec::ConstraintKind::kMostFrequent
                    ? std::max(extreme, group.size())
                    : std::min(extreme, group.size());
    }
    std::vector<Pair> kept;
    for (const auto& [key, group] : groups) {
      if (group.size() == extreme) {
        kept.insert(kept.end(), group.begin(), group.end());
      }
    }
    return kept;
  }

  Answer MakeAnswer(nlp::QuestionType type, const nlp::Spoc& spoc,
                    std::vector<Pair> pairs) const {
    Answer answer;
    answer.type = type;
    const bool subject_var = spoc.subject.is_variable;
    const bool object_var = spoc.object.is_variable;
    const bool want_kind =
        object_var ? spoc.object.want_kind : spoc.subject.want_kind;
    switch (type) {
      case nlp::QuestionType::kJudgment:
        answer.yes = !pairs.empty();
        answer.text = answer.yes ? "yes" : "no";
        break;
      case nlp::QuestionType::kCounting: {
        // Distinct identities; anonymous detections are unresolvable
        // individuals and count only when kinds are asked for.
        std::set<std::string> distinct;
        for (const Pair& p : pairs) {
          const graph::VertexId v = object_var ? p.object : p.subject;
          if (!want_kind && IsAnonymous(v)) continue;
          distinct.insert(AnswerText(v, want_kind));
        }
        answer.count = static_cast<int64_t>(distinct.size());
        answer.text = std::to_string(answer.count);
        break;
      }
      case nlp::QuestionType::kReasoning: {
        // Votes over the variable side; most votes first, ties by text.
        std::map<std::string, std::size_t> votes;
        for (const Pair& p : pairs) {
          ++votes[AnswerText(object_var || !subject_var ? p.object : p.subject,
                             want_kind)];
        }
        std::vector<std::pair<std::string, std::size_t>> ranked(votes.begin(),
                                                                votes.end());
        std::stable_sort(ranked.begin(), ranked.end(),
                         [](const auto& a, const auto& b) {
                           return a.second > b.second;
                         });
        for (const auto& [text, n] : ranked) answer.entities.push_back(text);
        answer.text =
            answer.entities.empty() ? "unknown" : answer.entities.front();
        break;
      }
    }
    answer.main_pairs = std::move(pairs);
    return answer;
  }

  const graph::Graph& g_;
  const text::EmbeddingModel& embeddings_;
  const text::SynonymLexicon& lexicon_;
  /// Only the default thresholds are read from here.
  const exec::ExecutorOptions defaults_;
};

}  // namespace svqa::reference

#endif  // SVQA_TESTS_REFERENCE_EVALUATOR_H_
