#ifndef SVQA_BENCH_INPUTS_H_
#define SVQA_BENCH_INPUTS_H_

// Seeded workload inputs: the request order and the batch_cold query
// pool. Everything the benchmark feeds the system is a pure function of
// `--seed` and the (fixed) MVQA dataset.

#include <cstdint>
#include <vector>

#include "data/world.h"
#include "query/query_graph.h"

namespace svqa_bench {

/// A request order over `n` items: `blocks` back-to-back seeded
/// permutations of 0..n-1, so every item appears equally often and
/// consecutive repeats are rare.
std::vector<uint32_t> ShuffledOrder(std::size_t n, std::size_t blocks,
                                    uint64_t seed);

/// The batch_cold long tail: `count` distinct query graphs built from
/// the MVQA template families, instantiated over the whole vocabulary
/// (every object category and scene predicate, every character and
/// clothing item) with one to three clauses. Deterministic in `seed`.
std::vector<svqa::query::QueryGraph> LongTailGraphs(
    const svqa::data::World& world, uint64_t seed, std::size_t count);

}  // namespace svqa_bench

#endif  // SVQA_BENCH_INPUTS_H_
