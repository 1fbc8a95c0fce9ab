#include "exec/relation_pairs.h"

#include <algorithm>

namespace svqa::exec {

std::vector<RelationPair> FindRelationPairs(
    const graph::FrozenGraph& g, std::span<const graph::VertexId> subjects,
    std::span<const graph::VertexId> objects, SimClock* clock) {
  std::vector<RelationPair> pairs;
  if (subjects.empty() || objects.empty()) return pairs;

  // Join-direction choice: scan the adjacency of the smaller candidate
  // set and probe the larger one — the traversal cost is proportional to
  // the scanned side's degree sum. The probe side is binary-searched in
  // place (candidate sets arrive sorted), so the only allocations are
  // the output pairs themselves.
  const bool scan_subjects = subjects.size() <= objects.size();
  const auto& scan = scan_subjects ? subjects : objects;
  const auto& probe = scan_subjects ? objects : subjects;

  const auto in_probe = [&probe](graph::VertexId v) {
    return std::binary_search(probe.begin(), probe.end(), v);
  };
  // Counting pass: the result is usually published into the path cache
  // where it lives long-term, so size the buffer exactly instead of
  // paying the ~2x realloc-growth traffic. The traversal is charged
  // once (below) — the recount is host work over the CSR rows, not
  // modeled cost.
  std::size_t matches = 0;
  double scanned = 0;
  for (graph::VertexId v : scan) {
    for (const auto& he : g.OutEdges(v)) {
      ++scanned;
      if (in_probe(he.neighbor)) ++matches;
    }
    for (const auto& he : g.InEdges(v)) {
      ++scanned;
      if (in_probe(he.neighbor)) ++matches;
    }
  }
  pairs.reserve(matches);
  // Subject/object roles depend on which side is scanned; `forward`
  // records whether the stored edge runs subject -> object.
  for (graph::VertexId v : scan) {
    for (const auto& he : g.OutEdges(v)) {  // edge v -> neighbor
      if (in_probe(he.neighbor)) {
        pairs.push_back(scan_subjects
                            ? RelationPair{v, he.neighbor, true, he.label}
                            : RelationPair{he.neighbor, v, false, he.label});
      }
    }
    for (const auto& he : g.InEdges(v)) {  // edge neighbor -> v
      if (in_probe(he.neighbor)) {
        pairs.push_back(scan_subjects
                            ? RelationPair{v, he.neighbor, false, he.label}
                            : RelationPair{he.neighbor, v, true, he.label});
      }
    }
  }
  if (clock != nullptr) clock->Charge(CostKind::kEdgeTraverse, scanned);
  return pairs;
}

}  // namespace svqa::exec
