// Exp-5 (Figures 10 & 11): the key-centric caching mechanism, plus the
// post-paper performance work layered on top of it.
//
// Fig. 10(a): batch query latency with vs without cache, growing N.
// Fig. 10(b): cache granularity ablation (No / Scope / Path / Both).
// Fig. 11:    cache pool size sweep under LFU and LRU.
// Extras:     simulated LPT makespan and the label-index /
//             similarity-memo ablation.
//
// The Fig. 10/11 sections run the *paper's* cost model (label index and
// similarity memos off) so the reproduced percentages stay comparable
// across PRs; the ablation section also measures the indexed/memoized
// engine. Every record is virtual-time deterministic; host wall time
// and heap traffic ride along as machine-dependent extras.
//
// Flags: --workers N   max worker count for the simulated section (8)
//        --json PATH   machine-readable output ("BENCH_exp5.json";
//                      pass "" to disable)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "data/mvqa_generator.h"
#include "exec/batch_executor.h"

namespace {

using namespace svqa;

/// The paper's §V cost model: every matchVertex is charged as a full
/// merged-graph scan and every maxScore as a full embedding sweep.
exec::ExecutorOptions PaperModel() {
  exec::ExecutorOptions opts;
  opts.matcher.use_label_index = false;
  opts.matcher.memoize_similarity = false;
  opts.memoize_similarity = false;
  return opts;
}

/// The engine this repo ships by default: indexed and memoized.
exec::ExecutorOptions IndexedModel() { return exec::ExecutorOptions{}; }

struct RunConfig {
  int n = 100;
  bool enable_cache = true;
  exec::KeyCentricCacheOptions cache;
  bool use_scheduler = true;
  exec::ExecutorOptions executor;
  exec::BatchOptions batch;
};

struct RunOutput {
  exec::BatchResult result;
  double hit_rate = 0;
  /// Heap traffic of ExecuteAll only (snapshot compilation and executor
  /// construction excluded) — the bench_common.h operator-new hook.
  double bytes_allocated = 0;
};

/// Runs the first `n` gold query graphs through a fresh executor with
/// the given configuration.
RunOutput RunBatch(const data::MvqaDataset& dataset,
                   const aggregator::MergedGraph& merged,
                   const text::EmbeddingModel& embeddings,
                   const RunConfig& config) {
  std::vector<query::QueryGraph> graphs;
  for (int i = 0; i < config.n; ++i) {
    graphs.push_back(
        dataset.questions[static_cast<std::size_t>(i) %
                          dataset.questions.size()]
            .gold_graph);
  }
  exec::KeyCentricCache cache(config.cache);
  exec::QueryGraphExecutor executor(&merged, &embeddings,
                                    config.enable_cache ? &cache : nullptr,
                                    config.executor);
  exec::BatchOptions bopts = config.batch;
  bopts.use_scheduler = config.use_scheduler;
  exec::BatchExecutor batch(&executor, bopts);
  RunOutput out;
  const bench::AllocSnapshot allocs = bench::AllocsNow();
  out.result = batch.ExecuteAll(graphs);
  out.bytes_allocated =
      static_cast<double>(bench::AllocsSince(allocs).bytes);
  out.hit_rate = cache.TotalStats().HitRate();
  return out;
}

double RunSeconds(const data::MvqaDataset& dataset,
                  const aggregator::MergedGraph& merged,
                  const text::EmbeddingModel& embeddings, int n,
                  bool enable_cache, exec::KeyCentricCacheOptions copts,
                  bool use_scheduler = true) {
  RunConfig config;
  config.n = n;
  config.enable_cache = enable_cache;
  config.cache = copts;
  config.use_scheduler = use_scheduler;
  config.executor = PaperModel();
  return RunBatch(dataset, merged, embeddings, config)
             .result.total_micros /
         1e6;
}

}  // namespace

int main(int argc, char** argv) {
  using bench::Banner;
  using bench::Rule;

  const auto max_workers = static_cast<std::size_t>(
      std::atoi(bench::FlagValue(argc, argv, "--workers", "8").c_str()));
  bench::JsonEmitter json(
      bench::FlagValue(argc, argv, "--json", "BENCH_exp5.json"));

  std::printf("Generating MVQA and the noisy merged graph...\n");
  const data::MvqaDataset dataset = data::MvqaGenerator().Generate();
  core::SvqaEngine engine;
  Status s = engine.Ingest(dataset.knowledge_graph, dataset.world.scenes);
  if (!s.ok()) {
    std::printf("ingest failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const auto& merged = engine.merged();
  const auto& embeddings = engine.embeddings();

  // ------------------------------------------------------------------
  Banner("Figure 10(a): latency with vs without cache (seconds)");
  std::printf("%6s %12s %10s %10s\n", "N", "No cache", "Cache",
              "Saved");
  Rule();
  for (int n : {20, 40, 60, 80, 100}) {
    exec::KeyCentricCacheOptions copts;
    copts.capacity = 100;
    const double without =
        RunSeconds(dataset, merged, embeddings, n, false, copts);
    const double with =
        RunSeconds(dataset, merged, embeddings, n, true, copts);
    std::printf("%6d %12.1f %10.1f %9.1f%%\n", n, without, with,
                100.0 * (1.0 - with / without));
  }
  std::printf("(paper: caching reduces latency by ~48.9%% on average, "
              "~49.7%% at 100 questions)\n");

  // ------------------------------------------------------------------
  Banner("Figure 10(b): cache granularity at 100 questions, pool=100");
  std::printf("%-12s %12s %10s\n", "Config", "Latency(s)", "Saved");
  Rule();
  struct Config {
    const char* name;
    bool enable;
    bool scope;
    bool path;
  };
  const Config configs[] = {{"No cache", false, false, false},
                            {"Scope", true, true, false},
                            {"Path", true, false, true},
                            {"Both", true, true, true}};
  double baseline_latency = 0;
  for (const auto& c : configs) {
    exec::KeyCentricCacheOptions copts;
    copts.capacity = 100;
    copts.enable_scope = c.scope;
    copts.enable_path = c.path;
    const double latency =
        RunSeconds(dataset, merged, embeddings, 100, c.enable, copts);
    if (!c.enable) baseline_latency = latency;
    std::printf("%-12s %12.1f %9.1f%%\n", c.name, latency,
                baseline_latency == 0
                    ? 0.0
                    : 100.0 * (1.0 - latency / baseline_latency));
  }
  std::printf("(paper: scope -13.5%%, path -27.6%%, both -38.7%%)\n");

  // ------------------------------------------------------------------
  Banner("Figure 11: cache pool size vs latency (seconds), LFU and LRU");
  std::printf("%6s | %28s | %28s\n", "", "LFU: N=20   N=60   N=100",
              "LRU: N=20   N=60   N=100");
  std::printf("%6s | %9s %9s %9s | %9s %9s %9s\n", "pool", "", "", "", "",
              "", "");
  Rule();
  for (std::size_t pool : {0u, 10u, 25u, 50u, 75u, 100u, 150u, 200u}) {
    std::printf("%6zu |", pool);
    for (auto policy : {exec::CachePolicy::kLfu, exec::CachePolicy::kLru}) {
      for (int n : {20, 60, 100}) {
        exec::KeyCentricCacheOptions copts;
        copts.capacity = pool;
        copts.policy = policy;
        const double latency =
            RunSeconds(dataset, merged, embeddings, n, true, copts);
        std::printf(" %9.1f", latency);
      }
      std::printf(" |");
    }
    std::printf("\n");
  }
  std::printf(
      "(paper shape: latency plateaus once the pool covers the working "
      "set (~50 items for\n20 questions); LFU is slightly better than LRU "
      "in most settings.)\n");

  // ------------------------------------------------------------------
  Banner("Simulated parallel makespan: least-loaded vs worker count");
  std::printf("%8s %16s %10s\n", "workers", "makespan(s)", "speedup");
  Rule();
  double sim_serial = 0;
  for (std::size_t w = 1; w <= max_workers; w *= 2) {
    RunConfig config;
    config.cache.capacity = 100;
    config.executor = PaperModel();
    config.batch.num_workers = w;
    const RunOutput out = RunBatch(dataset, merged, embeddings, config);
    const double makespan = out.result.total_micros / 1e6;
    if (w == 1) sim_serial = makespan;
    std::printf("%8zu %16.1f %9.2fx\n", w, makespan,
                sim_serial / makespan);
    bench::JsonRecord rec;
    rec.name = "exp5/simulated";
    rec.workers = w;
    rec.cache_policy = exec::CachePolicyName(config.cache.policy);
    rec.total_micros = out.result.total_micros;
    rec.wall_micros = out.result.wall_micros;
    rec.hit_rate = out.hit_rate;
    json.Add(rec);
  }
  std::printf("(virtual accounting; the §V-B schedule order is preserved "
              "so the cache warms identically)\n");

  // ------------------------------------------------------------------
  Banner("Label index / similarity memo ablation (N=100, serial)");
  std::printf("%-22s %12s %16s %16s\n", "Config", "Latency(s)",
              "vertex cmps", "embedding sims");
  Rule();
  for (const bool cache_on : {false, true}) {
    for (const bool index_on : {false, true}) {
      RunConfig config;
      config.enable_cache = cache_on;
      config.cache.capacity = 100;
      config.executor = index_on ? IndexedModel() : PaperModel();
      const RunOutput out = RunBatch(dataset, merged, embeddings, config);
      const double vertex_ops =
          out.result.ops.OpCount(CostKind::kVertexCompare);
      const double sim_ops =
          out.result.ops.OpCount(CostKind::kEmbeddingSim);
      std::string name = std::string(index_on ? "index" : "scan") +
                         (cache_on ? "+cache" : ", no cache");
      std::printf("%-22s %12.1f %16.0f %16.0f\n", name.c_str(),
                  out.result.total_micros / 1e6, vertex_ops, sim_ops);
      bench::JsonRecord rec;
      rec.name = std::string("exp5/") + (index_on ? "index_on" : "index_off") +
                 (cache_on ? "_cached" : "_nocache");
      rec.workers = 1;
      rec.cache_policy = cache_on
                             ? exec::CachePolicyName(config.cache.policy)
                             : "none";
      rec.total_micros = out.result.total_micros;
      rec.wall_micros = out.result.wall_micros;
      rec.hit_rate = out.hit_rate;
      rec.Extra("vertex_compare_ops", vertex_ops);
      rec.Extra("levenshtein_ops",
                out.result.ops.OpCount(CostKind::kLevenshtein));
      rec.Extra("embedding_sim_ops", sim_ops);
      rec.Extra("bytes_allocated", out.bytes_allocated);
      json.Add(rec);
    }
  }
  std::printf(
      "(the inverted label index turns matchVertex scans into bucket "
      "probes; the memo turns\nrepeated maxScore sweeps into one probe "
      "per distinct predicate/constraint)\n");

  return json.Flush() ? 0 : 1;
}
