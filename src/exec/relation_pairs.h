#ifndef SVQA_EXEC_RELATION_PAIRS_H_
#define SVQA_EXEC_RELATION_PAIRS_H_

#include <span>
#include <vector>

#include "graph/frozen_graph.h"
#include "util/sim_clock.h"

namespace svqa::exec {

/// \brief One (Sub - E_so - Obj) relation pair (Algorithm 3 line 26).
/// `forward` is true when the merged-graph edge runs subject -> object;
/// `label` is the edge's interned label id (its text is
/// `FrozenGraph::EdgeLabelName(label)`).
struct RelationPair {
  graph::VertexId subject = 0;
  graph::VertexId object = 0;
  bool forward = true;
  graph::LabelId label = graph::kInvalidLabel;
};

/// \brief getRelations(Sub, Obj): all edges of `g` connecting a subject
/// candidate with an object candidate, in either direction. Scans the
/// adjacency of the smaller candidate set (scan order) and
/// binary-searches the other, charging CostKind::kEdgeTraverse per
/// adjacency entry scanned.
///
/// Precondition: `subjects` and `objects` are ascending (matchVertex
/// results and executor bindings are sorted + deduplicated); only the
/// probed (larger) side's order is load-bearing.
std::vector<RelationPair> FindRelationPairs(
    const graph::FrozenGraph& g, std::span<const graph::VertexId> subjects,
    std::span<const graph::VertexId> objects, SimClock* clock = nullptr);

}  // namespace svqa::exec

#endif  // SVQA_EXEC_RELATION_PAIRS_H_
