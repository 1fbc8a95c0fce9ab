// svqa_bench — host-time benchmark of the whole SVQA pipeline.
//
//   svqa_bench --workload {ask_hot|ask_publish|batch_cold|ingest}
//              --seed N [--seconds S] [--trace 0]
//   svqa_bench_traced --workload W --seed N [--seconds S] --trace 1
//              --untraced_primary X [--trace_out PATH]
//
// Each invocation runs one workload in its own process (so peak RSS is
// per workload), prints every metric as a `name value unit` line, and
// ends with one JSON line {"correct", "attempted", "failed", "metrics"}.
// svqa_bench (`--trace 0`) reports the end-to-end metrics on the default
// allocator. svqa_bench_traced, the same sources built with the
// bench_common.h operator-new hook, runs the phase with spans recorded
// around the calls into each layer and reports the per-layer metrics;
// X is the workload's primary metric from an untraced run, for
// trace_overhead_frac (run.py supplies it). README.md has both tables.
// Every answer is checked; a mismatch or a failed operation makes the
// run incorrect and the exit code 1.
//
// The system is driven only through public entry points: SvqaEngine,
// SvqaServer, the batch path behind SvqaEngine::ExecuteBatch, and, for
// the per-layer replay, the vision / aggregator / graph / storage layer
// classes. Inputs come from --seed. Input generation, reference answers
// and checks are never inside a timed region.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aggregator/snapshot_codec.h"
#include "bench_common.h"  // operator-new hook (traced binary only)
#include "core/engine.h"
#include "data/mvqa_generator.h"
#include "data/vocabulary.h"
#include "graph/frozen_graph.h"
#include "graph/serialization.h"
#include "harness.h"
#include "inputs.h"
#include "serve/server.h"
#include "storage/sim_fs.h"
#include "storage/snapshot.h"
#include "svqa_trace/svqa_trace.h"
#include "util/rng.h"
#include "vision/scene_graph_generator.h"

namespace svqa_bench {
namespace {

using namespace svqa;

// ---- Workload constants (README.md explains each choice) -----------------

constexpr int kSetups = 7;  // setup_s is the median of this many
// Server and batch workers. On a 4-CPU host, threads that are busy at the
// same time get descheduled for milliseconds far more often at 4 than at
// 2 or 3, and the spinning generator is always busy; so no workload runs
// more than 3 busy threads.
constexpr double kHotRate = 3000;
constexpr std::size_t kHotWorkers = 2;
constexpr double kPublishRate = 2000;
constexpr std::size_t kPublishWorkers = 2;
constexpr double kPublishPeriodMicros = 500e3;
constexpr double kGraphBShare = 0.95;  // graph B ingests this image prefix
constexpr std::size_t kBatchWorkers = 2;
// Every time and rate of the measured phase is taken per window of about
// a second, and WindowQuartile (harness.h) of the windows is reported.
// tail_ms is p99 in the open loops (2,000 to 3,000 requests a window) and
// p90 in the closed loops, which have far fewer samples.
constexpr double kOpenLoopTail = 0.99;
constexpr double kClosedLoopTail = 0.90;
// A recovery costs about a sixth of an ingest. Six per ingest give the
// ingest phase over 100 recoveries at --seconds 20 even on a slow host,
// about six a window.
constexpr int kRecoveriesPerIngest = 6;
constexpr std::size_t kBatchSize = 500;
constexpr std::size_t kPoolSize = 2400;  // distinct batch_cold graphs
// The pool is fixed, like the dataset; `--seed` varies which graphs each
// batch draws. With a seeded pool, peak RSS ranged from 85 to 98 MiB
// over 20 seeds, set by which heavy graphs the pool happened to hold.
constexpr uint64_t kPoolSeed = 0xba7c4;
constexpr int kBursts = 8;
constexpr std::size_t kBurstRequests = 4000;
constexpr double kProbeRate = 1000;  // serve probe of batch_cold / ingest
constexpr std::size_t kReplayRequests = 2000;
constexpr std::size_t kExplainSamples = 200;
constexpr int kIdleRuns = 3;  // idle publishes / warm starts per traced run
constexpr double kDrainTimeoutMicros = 10e6;
// Trace ids (`tid`) of the lanes that are not requests.
constexpr uint64_t kLaneSetup = 1ull << 40;
constexpr uint64_t kLanePublish = 2ull << 40;
constexpr uint64_t kLaneIngestLayers = 3ull << 40;
constexpr uint64_t kLaneWarmStart = 4ull << 40;

enum class Workload { kAskHot, kAskPublish, kBatchCold, kIngest };

// Only svqa_bench_traced counts allocations, and it serves `--trace 1`
// only, so the end-to-end metrics never run on the counting allocator.
#ifdef SVQA_BENCH_COUNT_ALLOCS
constexpr bool kTracedBuild = true;
#else
constexpr bool kTracedBuild = false;
#endif

/// Heap allocations so far, from the bench_common.h hook (zero in the
/// untraced binary, which never asks).
struct Allocs {
  double count = 0;
  double bytes = 0;
};
Allocs AllocsNow() {
#ifdef SVQA_BENCH_COUNT_ALLOCS
  const bench::AllocSnapshot s = bench::AllocsNow();
  return {static_cast<double>(s.count), static_cast<double>(s.bytes)};
#else
  return {};
#endif
}

struct Args {
  Workload workload = Workload::kAskHot;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // The workload's primary end-to-end metric from an untraced run (p50_ms
  // for ask_*, throughput_per_s otherwise); traced runs only.
  double untraced_primary = 0;
  std::string trace_out = "svqa_bench_trace.json";
};

// ---- Correctness bookkeeping ---------------------------------------------

/// Byte-exact identity of an answer: normalized text plus every candidate
/// entity, in order.
std::string AnswerKey(const exec::Answer& a) {
  std::string key = a.text;
  for (const std::string& e : a.entities) {
    key += '\x1f';
    key += e;
  }
  return key;
}

/// Counts checked operations and failures (failed, shed, deadline-missed
/// or wrong), plus whole-run checks that are not per operation.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool ok = true;

  /// One checked operation; `describe()` names it if it failed.
  template <typename Describe>
  void Op(bool good, Describe&& describe) {
    ++attempted;
    if (good) return;
    if (++failed <= 5) {
      std::fprintf(stderr, "svqa_bench: FAILED %s\n", describe().c_str());
    }
  }
  void Require(bool cond, const std::string& what) {
    if (cond) return;
    ok = false;
    std::fprintf(stderr, "svqa_bench: CHECK FAILED %s\n", what.c_str());
  }
};

/// Everything one run accumulates.
struct Run {
  Args args;
  Checks checks;
  TraceRecorder trace;
  TraceRecorder off{false};  // for untraced phases
  Report report;
  // Sampled after each timed operation, never inside one; scales the
  // operation's end-to-end numbers (per-layer times stay raw).
  ClockProbe clock;
  uint64_t next_tid = 1;

  explicit Run(Args a) : args(std::move(a)), trace(args.trace) {}

  double WarmUp() const { return std::min(2.0, args.seconds / 10); }
  TraceRecorder* Tracer(bool traced) { return traced ? &trace : &off; }

  /// trace_overhead_frac: how much worse the traced phase's primary
  /// metric is than the untraced run's, as a share of the latter.
  void ReportOverhead(double traced_primary, bool lower_is_better) {
    const double u = args.untraced_primary;
    report.Add("trace_overhead_frac",
               (lower_is_better ? traced_primary - u : u - traced_primary) / u,
               "fraction");
  }
};

// ---- Deployment: durable engine + server -----------------------------------

/// Durability to an in-memory SimFs with the DurabilityOptions defaults:
/// the WAL is synced before each ack, a snapshot is written on every
/// publish, and 3 are kept. Storage costs are CPU (encode, CRC, framing).
core::SvqaOptions EngineOptions(storage::SimFs* fs) {
  core::SvqaOptions options;
  options.durability.env = fs;
  options.durability.dir = "db";
  return options;
}

std::unique_ptr<serve::SvqaServer> MakeServer(core::SvqaEngine* engine,
                                              std::size_t workers) {
  serve::ServerOptions options;
  options.mode = serve::ServeMode::kThreaded;
  options.num_workers = workers;
  options.parser = &engine->builder();
  // Admission never sheds: here a shed request is a failure.
  options.admission.max_queue_depth = 1 << 20;
  for (std::size_t& depth : options.admission.class_depth) depth = 1 << 20;
  return std::make_unique<serve::SvqaServer>(engine->snapshot_store(),
                                             options);
}

/// One deployment: a durable engine and a started threaded server.
struct Stack {
  std::unique_ptr<storage::SimFs> fs;
  std::unique_ptr<core::SvqaEngine> engine;
  std::unique_ptr<serve::SvqaServer> server;
};

struct Setup {
  data::MvqaDataset ds;
  Stack stack;
  double setup_s = 0;  // at the nominal clock
  std::vector<double> ingest_ms;  // the set-ups' Ingest calls
  double write_amp = 0;           // of the last set-up's durable ingest
};

/// Generates the inputs, then runs kSetups cold set-ups — engine
/// construction + Ingest + server Start — keeping the last one.
Setup DoSetup(Run* run, std::size_t workers) {
  Setup s;
  // The repo's MVQA dataset (default options: 4,233 images), the same for
  // every seed: `--seed` varies the traffic, not the data, so the spread
  // between seeds is not set by which heavy questions a world contains.
  s.ds = data::MvqaGenerator(data::MvqaOptions{}).Generate();
  std::vector<double> setup_micros;
  for (int i = 0; i < kSetups; ++i) {
    // Tear the previous set-up down, users before what they point into.
    s.stack.server.reset();
    s.stack.engine.reset();
    s.stack.fs = std::make_unique<storage::SimFs>();
    const double t0 = NowMicros();
    s.stack.engine =
        std::make_unique<core::SvqaEngine>(EngineOptions(s.stack.fs.get()));
    const double t1 = NowMicros();
    const Status ingested =
        s.stack.engine->Ingest(s.ds.knowledge_graph, s.ds.world.scenes);
    const double t2 = NowMicros();
    s.stack.server = MakeServer(s.stack.engine.get(), workers);
    const Status started = s.stack.server->Start();
    const double t3 = NowMicros();
    run->checks.Require(ingested.ok(), "set-up Ingest: " + ingested.ToString());
    run->checks.Require(started.ok(), "set-up Start: " + started.ToString());
    setup_micros.push_back((t3 - t0) * run->clock.Sample());
    s.ingest_ms.push_back((t2 - t1) / 1e3);
    const uint32_t root = run->trace.Add("setup", kLaneSetup, t0, t3);
    run->trace.Add("core.ingest", kLaneSetup, t1, t2, root);
  }
  s.setup_s = Median(setup_micros) / 1e6;
  const core::SvqaEngine& engine = *s.stack.engine;
  if (run->args.trace) {
    const serve::DurabilityStats stats = s.stack.engine->durability()->stats();
    const std::string encoded =
        storage::EncodeSnapshot(aggregator::ToSnapshotData(
            engine.merged(), stats.last_generation,
            engine.snapshot_store().symbols().get()));
    s.write_amp = static_cast<double>(stats.wal_bytes + stats.snapshot_bytes) /
                  static_cast<double>(encoded.size());
  }
  std::printf("# set-up: %zu images, graph %zu vertices / %zu edges, "
              "median of %d cold set-ups\n",
              s.ds.world.scenes.size(), engine.merged().graph.num_vertices(),
              engine.merged().graph.num_edges(), kSetups);
  return s;
}

// ---- Reference answers and the question stream -----------------------------

/// Answers from a serial run of `graphs` on a fresh snapshot of `merged`
/// (a new engine that adopts a copy of the graph).
std::vector<std::string> ReferenceAnswers(
    const aggregator::MergedGraph& merged,
    const std::vector<query::QueryGraph>& graphs, Checks* checks) {
  core::SvqaEngine fresh;
  const Status adopted = fresh.IngestMerged(merged);
  checks->Require(adopted.ok(), "reference IngestMerged: " + adopted.ToString());
  std::vector<std::string> refs;
  refs.reserve(graphs.size());
  for (const query::QueryGraph& g : graphs) {
    Result<exec::Answer> a = fresh.Execute(g);
    checks->Require(a.ok(), "reference execution of: " + g.question());
    refs.push_back(a.ok() ? AnswerKey(*a) : std::string());
  }
  return refs;
}

/// The question stream: the parseable MVQA question texts, their parsed
/// graphs, and a seed-shuffled request order over them.
struct QuestionStream {
  std::vector<std::string> texts;
  std::vector<query::QueryGraph> graphs;
  std::vector<uint32_t> order;

  uint32_t At(std::size_t i) const { return order[i % order.size()]; }
};

QuestionStream MakeStream(const data::MvqaDataset& ds,
                          const core::SvqaEngine& engine, uint64_t seed) {
  QuestionStream s;
  for (const data::MvqaQuestion& q : ds.questions) {
    Result<query::QueryGraph> g = engine.Parse(q.text);
    if (!g.ok()) continue;  // an unparseable question fails every time
    s.texts.push_back(q.text);
    s.graphs.push_back(std::move(g).ValueOrDie());
  }
  s.order = ShuffledOrder(s.texts.size(), 64, seed ^ 0x5eedULL);
  return s;
}

// ---- Cache accounting ---------------------------------------------------------

struct CacheCounts {
  cache::CacheStats scope;
  cache::CacheStats path;

  static CacheCounts Of(const serve::GraphSnapshot& snap) {
    CacheCounts c;
    if (snap.cache() != nullptr) {
      c.scope = snap.cache()->ScopeStats();
      c.path = snap.cache()->PathStats();
    }
    return c;
  }
  /// Adds `end - start`.
  void AddDelta(const CacheCounts& end, const CacheCounts& start) {
    scope.Merge(Minus(end.scope, start.scope));
    path.Merge(Minus(end.path, start.path));
  }

 private:
  static cache::CacheStats Minus(cache::CacheStats a,
                                 const cache::CacheStats& b) {
    a.hits -= b.hits;
    a.misses -= b.misses;
    a.evictions -= b.evictions;
    a.inserts -= b.inserts;
    return a;
  }
};

/// Cache traffic over a window, summed across every snapshot that served
/// during it (each publish retires a snapshot together with its cache).
class CacheWindow {
 public:
  explicit CacheWindow(const serve::GraphSnapshotStore& store)
      : first_(store.Current()), first_start_(CacheCounts::Of(*first_)) {}

  /// Folds in a snapshot that no longer serves. Thread-compatible: one
  /// caller at a time.
  void Retire(const serve::SnapshotPtr& snap) {
    totals_.AddDelta(CacheCounts::Of(*snap),
                     snap == first_ ? first_start_ : CacheCounts{});
  }
  CacheCounts Finish(const serve::GraphSnapshotStore& store) {
    Retire(store.Current());
    return totals_;
  }

 private:
  serve::SnapshotPtr first_;
  CacheCounts first_start_;
  CacheCounts totals_;
};

// ---- Live publishes (ask_publish) ---------------------------------------------

/// Publishes prebuilt graphs through the server every 500 ms from its own
/// thread, alternating B, A, B, ... over the whole run (`published`
/// carries the count across windows). Each graph is copied before the
/// timed Publish call.
class Publisher {
 public:
  Publisher(serve::SvqaServer* server, const aggregator::MergedGraph* a,
            const aggregator::MergedGraph* b, uint64_t* published,
            CacheWindow* window)
      : server_(server), a_(a), b_(b), published_(published),
        window_(window), thread_([this] { Loop(); }) {}
  ~Publisher() { Stop(); }

  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  /// Joins the thread and folds the last retired snapshot into the
  /// window; the accessors below are valid afterwards.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    if (retired_ != nullptr) window_->Retire(retired_);
    retired_ = nullptr;
  }

  struct Record {
    double start;
    double end;
  };
  const std::vector<Record>& records() const { return records_; }
  /// CPU time of the graph copies so far; safe to read while running.
  double copy_cpu_micros() const { return copy_cpu_micros_.load(); }
  bool ids_ok() const { return ids_ok_; }

 private:
  void Loop() {
    auto next = std::chrono::steady_clock::now();
    for (;;) {
      next += std::chrono::microseconds(static_cast<int64_t>(kPublishPeriodMicros));
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_until(lock, next, [this] { return stop_; })) return;
      }
      const bool graph_b = *published_ % 2 == 0;
      const double c0 = ThreadCpuMicros();
      aggregator::MergedGraph copy = graph_b ? *b_ : *a_;
      copy_cpu_micros_ += ThreadCpuMicros() - c0;
      serve::SnapshotPtr outgoing = server_->store().Current();
      const double t0 = NowMicros();
      const uint64_t id = server_->Publish(std::move(copy));
      const double t1 = NowMicros();
      records_.push_back({t0, t1});
      ++*published_;
      // Snapshot 1 is graph A from Ingest, so A has odd ids and B even.
      if ((id % 2 == 0) != graph_b) ids_ok_ = false;
      // The snapshot retired one period ago has drained by now.
      if (retired_ != nullptr) window_->Retire(retired_);
      retired_ = std::move(outgoing);
    }
  }

  serve::SvqaServer* server_;
  const aggregator::MergedGraph* a_;
  const aggregator::MergedGraph* b_;
  uint64_t* published_;
  CacheWindow* window_;
  std::vector<Record> records_;
  std::atomic<double> copy_cpu_micros_{0};
  bool ids_ok_ = true;
  serve::SnapshotPtr retired_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after every member it reads
};

// ---- Open-loop load ---------------------------------------------------------------

/// Reference answers for a snapshot id (nullptr: unknown snapshot).
using RefsFor = std::function<const std::vector<std::string>*(uint64_t)>;

/// Checks one served response against the reference answer for the
/// snapshot it ran on.
void CheckServed(Run* run, const QuestionStream& stream, const RefsFor& refs,
                 const serve::ServeResponse& resp, uint32_t question) {
  const std::vector<std::string>* expect = refs(resp.snapshot_id);
  run->checks.Op(resp.status.ok() && expect != nullptr &&
                     AnswerKey(resp.answer) == (*expect)[question],
                 [&] {
                   return "\"" + stream.texts[question] + "\" on snapshot " +
                          std::to_string(resp.snapshot_id) + ": " +
                          resp.status.ToString();
                 });
}

struct OpenLoopResult {
  std::vector<Sample> latency;     // due -> completion observed, scaled
  std::vector<double> queue_wait;  // ServeResponse::queue_wait_micros
  std::vector<double> service;     // dispatch -> completion observed
  std::vector<double> submit;      // the SubmitQuestion call
  std::vector<double> late;        // how late the generator sent
  // Per window, scaled: process CPU minus the generator thread and the
  // publisher's graph copies, per completed request.
  std::vector<double> cpu_per_request;
  std::size_t windows = 0;
  double completed = 0;
};

/// Open loop: the calling thread is the one generator. It sends
/// SubmitQuestion calls on a fixed schedule and, between sends, spins
/// polling ServeTicket::done() to stamp completions. Latency runs from
/// each request's due time, so a stall also charges the requests queued
/// behind it. The schedule runs in windows of about a second; after each,
/// the generator waits for the requests in flight and samples the clock,
/// which scales the window's latencies and CPU time (the other fields
/// stay raw). `pub`, if any, is publishing meanwhile.
OpenLoopResult RunOpenLoop(serve::SvqaServer* server,
                           const QuestionStream& stream, std::size_t* cursor,
                           double rate, double seconds, const RefsFor& refs,
                           Run* run, bool traced, const Publisher* pub) {
  struct Pending {
    serve::TicketPtr ticket;
    uint32_t question;
    double due, sent, submitted;
  };
  OpenLoopResult out;
  TraceRecorder* trace = run->Tracer(traced);
  std::vector<Pending> inflight;
  const double period = 1e6 / rate;
  const std::size_t planned = WindowsIn(seconds);
  const double window_micros = seconds * 1e6 / static_cast<double>(planned);
  // CPU time of the program: the process less this thread and the copies.
  const auto program_cpu = [pub] {
    return ProcessCpuMicros() - ThreadCpuMicros() -
           (pub != nullptr ? pub->copy_cpu_micros() : 0);
  };

  const auto finish = [&](const Pending& p, double done) {
    const serve::ServeResponse& resp = p.ticket->Wait();
    CheckServed(run, stream, refs, resp, p.question);
    out.completed += 1;
    const double dispatch = std::min(done, p.submitted + resp.queue_wait_micros);
    out.latency.push_back({p.due, done - p.due});
    out.queue_wait.push_back(resp.queue_wait_micros);
    out.service.push_back(done - dispatch);
    out.submit.push_back(p.submitted - p.sent);
    out.late.push_back(p.sent - p.due);
    if (trace->enabled()) {
      const uint64_t tid = run->next_tid++;
      const uint32_t root = trace->Add("serve.request", tid, p.due, done);
      trace->Add("serve.generator_late", tid, p.due, p.sent, root);
      trace->Add("serve.submit", tid, p.sent, p.submitted, root);
      trace->Add("serve.queue_wait", tid, p.submitted, dispatch, root);
      trace->Add("serve.service", tid, dispatch, done, root);
    }
  };
  const auto poll = [&] {
    for (std::size_t k = 0; k < inflight.size();) {
      if (inflight[k].ticket->done()) {
        finish(inflight[k], NowMicros());
        inflight[k] = std::move(inflight.back());
        inflight.pop_back();
      } else {
        ++k;
      }
    }
  };

  // A window whose requests do not drain ends the loop.
  for (; out.windows < planned && inflight.empty(); ++out.windows) {
    const std::size_t first = out.latency.size();
    const double cpu0 = program_cpu();
    const double start = NowMicros() + 1000;
    for (uint64_t i = 0;;) {
      const double due = start + static_cast<double>(i) * period;
      if (due >= start + window_micros) break;
      if (NowMicros() < due) {
        poll();
        continue;
      }
      const uint32_t q = stream.At((*cursor)++);
      const double sent = NowMicros();
      serve::TicketPtr ticket = server->SubmitQuestion(stream.texts[q]);
      inflight.push_back({std::move(ticket), q, due, sent, NowMicros()});
      ++i;
    }
    const double drain_deadline = NowMicros() + kDrainTimeoutMicros;
    while (!inflight.empty() && NowMicros() < drain_deadline) poll();
    const double cpu = program_cpu() - cpu0;
    const double scale = run->clock.Sample();
    for (std::size_t k = first; k < out.latency.size(); ++k) {
      out.latency[k].value *= scale;
    }
    out.cpu_per_request.push_back(
        cpu * scale /
        std::max(1.0, static_cast<double>(out.latency.size() - first)));
  }
  for (std::size_t k = 0; k < inflight.size(); ++k) {
    run->checks.Op(false, [] { return std::string("request never completed"); });
  }
  return out;
}

/// Saturation throughput at the nominal clock: bursts of back-to-back
/// submissions, each timed until its last request completes; the bursts
/// are the windows of WindowQuartile.
double BurstThroughput(serve::SvqaServer* server, const QuestionStream& stream,
                       std::size_t* cursor, const RefsFor& refs, Run* run) {
  std::vector<double> rates;
  for (int b = 0; b < kBursts; ++b) {
    std::vector<std::pair<serve::TicketPtr, uint32_t>> tickets;
    tickets.reserve(kBurstRequests);
    const double t0 = NowMicros();
    for (std::size_t i = 0; i < kBurstRequests; ++i) {
      const uint32_t q = stream.At((*cursor)++);
      tickets.emplace_back(server->SubmitQuestion(stream.texts[q]), q);
    }
    // Newest first: requests dispatch in submit order, so once the last
    // one is done the rest almost all are, and the waiter sleeps once
    // instead of once per request.
    for (auto it = tickets.rbegin(); it != tickets.rend(); ++it) it->first->Wait();
    const double t1 = NowMicros();
    rates.push_back(static_cast<double>(kBurstRequests) * 1e6 /
                    ((t1 - t0) * run->clock.Sample()));
    for (const auto& [ticket, q] : tickets) {
      CheckServed(run, stream, refs, ticket->Wait(), q);
    }
  }
  return WindowQuartile(rates, /*lower_is_better=*/false);
}

// ---- Per-layer measurements (traced runs) ------------------------------------

/// One request of the serial replay: the text to parse, the graph to
/// execute (nullptr: the parsed one) and its reference answer.
struct ReplayItem {
  const std::string* text;
  const query::QueryGraph* graph;
  const std::string* ref;
};

struct ReplayResult {
  std::vector<double> parse_us;
  std::vector<double> execute_us;
  double ops[static_cast<int>(CostKind::kNumKinds)] = {};
  double allocs = 0, alloc_bytes = 0, attempts = 0, virtual_us = 0;
  double n = 0;
  CacheCounts cache;
  // Virtual-time shares of the Algorithm 3 stages (they sum to 1).
  double match = 0, relation_pairs = 0, filter = 0, constraints = 0, bind = 0;
};

/// Serial replay on the engine's current snapshot: each item is parsed
/// (SvqaEngine::Parse) and executed (QueryGraphExecutor::ExecuteResilient).
/// The first kExplainSamples are executed once more under a tracer and
/// attributed with exec::BuildQueryCostReport, as ExplainAnalyze does.
ReplayResult Replay(Run* run, core::SvqaEngine* engine,
                    const std::vector<ReplayItem>& items) {
  ReplayResult out;
  const serve::SnapshotPtr snap = engine->snapshot_store()->Current();
  const CacheCounts cache0 = CacheCounts::Of(*snap);
  const exec::ResilienceOptions& res = engine->options().resilience;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const ReplayItem& item = items[i];
    const double t0 = NowMicros();
    Result<query::QueryGraph> parsed = engine->Parse(*item.text);
    const double t1 = NowMicros();
    const query::QueryGraph* g =
        item.graph != nullptr ? item.graph : (parsed.ok() ? &*parsed : nullptr);
    if (g == nullptr) {
      run->checks.Op(false, [&] { return "replay parse of " + *item.text; });
      continue;
    }
    SimClock clock;
    exec::Diagnostics diag;
    const Allocs a0 = AllocsNow();
    const double t2 = NowMicros();
    Result<exec::Answer> r =
        snap->executor().ExecuteResilient(*g, &clock, res, i, &diag);
    const double t3 = NowMicros();
    const Allocs a1 = AllocsNow();
    run->checks.Op(r.ok() && AnswerKey(*r) == *item.ref,
                   [&] { return "replay of " + g->question(); });
    out.parse_us.push_back(t1 - t0);
    out.execute_us.push_back(t3 - t2);
    for (int k = 0; k < static_cast<int>(CostKind::kNumKinds); ++k) {
      out.ops[k] += clock.OpCount(static_cast<CostKind>(k));
    }
    out.allocs += a1.count - a0.count;
    out.alloc_bytes += a1.bytes - a0.bytes;
    out.attempts += diag.attempts;
    out.virtual_us += clock.ElapsedMicros();
    out.n += 1;
    const uint64_t tid = run->next_tid++;
    const uint32_t root = run->trace.Add("replay.request", tid, t0, t3);
    run->trace.Add("query.parse", tid, t0, t1, root);
    run->trace.Add("exec.execute", tid, t2, t3, root);

    if (i >= kExplainSamples) continue;
    obs::Tracer tracer(i);
    obs::Scope scope;
    scope.tracer = &tracer;
    scope.query_id = i;
    exec::ResilienceOptions traced = res;
    traced.obs = &scope;
    SimClock tclock;
    exec::Diagnostics tdiag;
    const bool ran =
        snap->executor().ExecuteResilient(*g, &tclock, traced, i, &tdiag).ok();
    Result<exec::QueryCostReport> report =
        exec::BuildQueryCostReport(*g, tracer, tdiag, exec::CacheCounters{});
    run->checks.Require(ran && report.ok(), "cost report of " + g->question());
    if (!report.ok()) continue;
    for (const exec::QuadrupleCost& qc : report->quadruples) {
      out.match += qc.match_micros;
      out.relation_pairs += qc.relation_pairs_micros;
      out.filter += qc.filter_micros;
      out.constraints += qc.constraints_micros;
      out.bind += qc.bind_micros;
    }
  }
  out.cache.AddDelta(CacheCounts::Of(*snap), cache0);
  const double total =
      out.match + out.relation_pairs + out.filter + out.constraints + out.bind;
  for (double* share : {&out.match, &out.relation_pairs, &out.filter,
                        &out.constraints, &out.bind}) {
    *share = total > 0 ? *share / total : 0;
  }
  return out;
}

/// The Ingest pipeline replayed layer by layer through the public layer
/// classes, with the steps, options and seeds SvqaEngine::Ingest uses,
/// then a snapshot encode and decode of the merged graph.
void ReplayIngestLayers(Run* run, const data::MvqaDataset& ds,
                        const core::SvqaOptions& options) {
  const std::vector<vision::Scene>& scenes = ds.world.scenes;
  vision::DetectorOptions det = options.detector;
  det.seed = options.seed;
  const double t0 = NowMicros();
  auto model = std::make_shared<vision::RelationModel>(
      options.sgg_model, data::Vocabulary::Default().scene_predicates,
      vision::RelationModel::DefaultOptionsFor(options.sgg_model));
  model->FitBias(scenes);
  const double t1 = NowMicros();
  const vision::SimulatedDetector detector(det);
  std::size_t detections = 0;
  for (const vision::Scene& scene : scenes) {
    detections += detector.Detect(scene).size();
  }
  const double t2 = NowMicros();
  const vision::SceneGraphGenerator generator(detector, model,
                                              options.sgg_mode);
  const std::vector<vision::SceneGraphResult> sgs =
      generator.GenerateAll(scenes);
  const double t3 = NowMicros();
  Result<aggregator::MergedGraph> merged =
      aggregator::GraphMerger(options.merger).Merge(ds.knowledge_graph, sgs);
  const double t4 = NowMicros();
  run->checks.Require(merged.ok() && detections > 0, "layer replay: merge");
  if (!merged.ok()) return;
  const std::shared_ptr<const graph::FrozenGraph> frozen =
      graph::FrozenGraph::Compile(merged->graph);
  const double t5 = NowMicros();
  const std::string bytes =
      storage::EncodeSnapshot(aggregator::ToSnapshotData(*merged, 1));
  const double t6 = NowMicros();
  Result<storage::SnapshotData> decoded = storage::SnapshotReader::Decode(bytes);
  Result<aggregator::MergedGraph> back =
      decoded.ok() ? aggregator::FromSnapshotData(*decoded)
                   : Result<aggregator::MergedGraph>(decoded.status());
  const double t7 = NowMicros();
  run->checks.Require(
      back.ok() && graph::ToText(back->graph) == graph::ToText(merged->graph),
      "layer replay: snapshot round trip");

  double relations = 0;
  for (const vision::SceneGraphResult& r : sgs) {
    relations += static_cast<double>(r.relations.size());
  }
  const double images = static_cast<double>(scenes.size());
  Report* rep = &run->report;
  rep->Add("vision.fit_bias_ms", (t1 - t0) / 1e3, "ms");
  rep->Add("vision.detect_ms_per_kimage", (t2 - t1) / images, "ms");
  rep->Add("vision.sgg_ms_per_kimage", (t3 - t2) / images, "ms");
  rep->Add("vision.relations_per_image", relations / images, "count");
  rep->Add("aggregator.merge_ms", (t4 - t3) / 1e3, "ms");
  rep->Add("aggregator.link_cache_hit_rate", merged->link_cache_stats.HitRate(),
           "fraction");
  rep->Add("graph.freeze_ms", (t5 - t4) / 1e3, "ms");
  rep->Add("graph.frozen_mb",
           static_cast<double>(frozen->ApproxBytes()) / (1 << 20), "MiB");
  rep->Add("graph.vertices", static_cast<double>(frozen->num_vertices()),
           "count");
  rep->Add("graph.edges", static_cast<double>(frozen->num_edges()), "count");
  rep->Add("storage.encode_ms", (t6 - t5) / 1e3, "ms");
  rep->Add("storage.decode_ms", (t7 - t6) / 1e3, "ms");
  rep->Add("storage.snapshot_mb", static_cast<double>(bytes.size()) / (1 << 20),
           "MiB");

  TraceRecorder* trace = &run->trace;
  const uint32_t root = trace->Add("ingest.layers", kLaneIngestLayers, t0, t7);
  trace->Add("vision.fit_bias", kLaneIngestLayers, t0, t1, root);
  trace->Add("vision.detect", kLaneIngestLayers, t1, t2, root);
  trace->Add("vision.sgg", kLaneIngestLayers, t2, t3, root);
  trace->Add("aggregator.merge", kLaneIngestLayers, t3, t4, root);
  trace->Add("graph.freeze", kLaneIngestLayers, t4, t5, root);
  trace->Add("storage.encode", kLaneIngestLayers, t5, t6, root);
  trace->Add("storage.decode", kLaneIngestLayers, t6, t7, root);
}

/// Distinct relation-pair (path-cache) keys over a set of query graphs.
double DistinctPathKeys(const std::vector<query::QueryGraph>& graphs) {
  std::set<std::string> keys;
  for (const query::QueryGraph& g : graphs) {
    for (const nlp::Spoc& spoc : g.vertices()) {
      keys.insert(exec::QueryGraphExecutor::PathKey(spoc));
    }
  }
  return static_cast<double>(keys.size());
}

/// WarmStart of fresh engines over the set-up's durable state, timed;
/// each must recover the set-up engine's current graph.
std::vector<double> IdleWarmStarts(Run* run, Setup* s) {
  const std::string expected = graph::ToText(s->stack.engine->merged().graph);
  std::vector<double> ms;
  for (int i = 0; i < kIdleRuns; ++i) {
    core::SvqaEngine engine(EngineOptions(s->stack.fs.get()));
    const double t0 = NowMicros();
    Result<storage::RecoveryReport> rep = engine.WarmStart();
    const double t1 = NowMicros();
    run->checks.Require(rep.ok() && engine.ingested() &&
                            graph::ToText(engine.merged().graph) == expected,
                        "warm start recovers the set-up graph");
    ms.push_back((t1 - t0) / 1e3);
    run->trace.Add("core.warm_start", kLaneWarmStart + static_cast<uint64_t>(i),
                   t0, t1);
  }
  return ms;
}

/// Idle publishes of a copy of the current graph (copied outside the
/// timed call).
std::vector<double> IdlePublishes(Run* run, serve::SvqaServer* server,
                                  const core::SvqaEngine& engine) {
  const aggregator::MergedGraph graph = engine.merged();
  std::vector<double> ms;
  for (int i = 0; i < kIdleRuns; ++i) {
    aggregator::MergedGraph copy = graph;
    const double t0 = NowMicros();
    server->Publish(std::move(copy));
    const double t1 = NowMicros();
    ms.push_back((t1 - t0) / 1e3);
    run->trace.Add("serve.publish", kLanePublish + static_cast<uint64_t>(i), t0,
                   t1);
  }
  return ms;
}

void ReportServeLayer(Run* run, const OpenLoopResult& o,
                      const std::vector<double>& publish_ms) {
  Report* r = &run->report;
  r->Add("serve.queue_wait_us.p50", Percentile(o.queue_wait, 0.50), "us");
  r->Add("serve.queue_wait_us.p99", Percentile(o.queue_wait, 0.99), "us");
  r->Add("serve.service_us.p50", Percentile(o.service, 0.50), "us");
  r->Add("serve.service_us.p99", Percentile(o.service, 0.99), "us");
  r->Add("serve.submit_us.p50", Percentile(o.submit, 0.50), "us");
  r->Add("serve.generator_late_us.p99", Percentile(o.late, 0.99), "us");
  r->Add("serve.generator_late_us.max", Percentile(o.late, 1.0), "us");
  r->Add("serve.publish_ms.p50", Median(publish_ms), "ms");
}

void ReportCacheLayer(Run* run, const CacheCounts& c, double queries,
                      double distinct_path_keys) {
  std::printf("# cache: %llu scope and %llu path lookups over %.0f queries\n",
              static_cast<unsigned long long>(c.scope.lookups()),
              static_cast<unsigned long long>(c.path.lookups()), queries);
  Report* r = &run->report;
  r->Add("cache.scope_hit_rate", c.scope.HitRate(), "fraction");
  r->Add("cache.path_hit_rate", c.path.HitRate(), "fraction");
  r->Add("cache.evictions_per_query",
         static_cast<double>(c.scope.evictions + c.path.evictions) /
             std::max(1.0, queries),
         "count");
  r->Add("cache.distinct_path_keys", distinct_path_keys, "count");
}

/// The per-layer tail every traced run shares: the serial query replay,
/// the ingest-layer replay, write amplification and the core timings.
/// Returns the replay (its cache traffic feeds the ingest workload).
ReplayResult ReportSharedLayers(Run* run, Setup* s,
                                const std::vector<ReplayItem>& items,
                                const std::vector<double>& ingest_ms,
                                const std::vector<double>& warm_start_ms) {
  const ReplayResult rp = Replay(run, s->stack.engine.get(), items);
  ReplayIngestLayers(run, s->ds, s->stack.engine->options());
  Report* r = &run->report;
  const double n = std::max(1.0, rp.n);
  const auto per_query = [&](CostKind k) {
    return rp.ops[static_cast<int>(k)] / n;
  };
  r->Add("query.parse_us.p50", Percentile(rp.parse_us, 0.50), "us");
  r->Add("query.parse_us.p99", Percentile(rp.parse_us, 0.99), "us");
  r->Add("exec.execute_us.p50", Percentile(rp.execute_us, 0.50), "us");
  r->Add("exec.execute_us.p99", Percentile(rp.execute_us, 0.99), "us");
  r->Add("exec.vertex_compare_per_query", per_query(CostKind::kVertexCompare),
         "count");
  r->Add("exec.edge_traverse_per_query", per_query(CostKind::kEdgeTraverse),
         "count");
  r->Add("exec.levenshtein_per_query", per_query(CostKind::kLevenshtein),
         "count");
  r->Add("exec.embedding_sim_per_query", per_query(CostKind::kEmbeddingSim),
         "count");
  r->Add("exec.cache_probe_per_query", per_query(CostKind::kCacheProbe),
         "count");
  r->Add("exec.allocs_per_query", rp.allocs / n, "count");
  r->Add("exec.alloc_bytes_per_query", rp.alloc_bytes / n, "bytes");
  r->Add("exec.attempts_per_query", rp.attempts / n, "count");
  r->Add("exec.virtual_us_per_query", rp.virtual_us / n, "vus");
  r->Add("exec.match.vshare", rp.match, "fraction");
  r->Add("exec.relation_pairs.vshare", rp.relation_pairs, "fraction");
  r->Add("exec.filter.vshare", rp.filter, "fraction");
  r->Add("exec.constraints.vshare", rp.constraints, "fraction");
  r->Add("exec.bind.vshare", rp.bind, "fraction");
  r->Add("storage.write_amp", s->write_amp, "ratio");
  r->Add("core.ingest_ms", Median(ingest_ms), "ms");
  r->Add("core.warm_start_ms",
         Median(warm_start_ms.empty() ? IdleWarmStarts(run, s) : warm_start_ms),
         "ms");
  return rp;
}

/// Serve-layer numbers for the workloads that bypass the server: idle
/// publishes and a short open-loop probe of the question stream through
/// a fresh server, with ask_hot's worker count, over the set-up engine's
/// store.
void ServeProbe(Run* run, Setup* s, const QuestionStream& stream,
                const std::vector<std::string>& refs) {
  std::unique_ptr<serve::SvqaServer> probe =
      MakeServer(s->stack.engine.get(), kHotWorkers);
  const Status started = probe->Start();
  run->checks.Require(started.ok(), "probe Start: " + started.ToString());
  const std::vector<double> publish_ms =
      IdlePublishes(run, probe.get(), *s->stack.engine);
  const RefsFor all = [&](uint64_t) { return &refs; };
  std::size_t cursor = 0;
  RunOpenLoop(probe.get(), stream, &cursor, kProbeRate, 0.25, all, run, false,
              nullptr);
  const OpenLoopResult load = RunOpenLoop(probe.get(), stream, &cursor,
                                          kProbeRate, 1.0, all, run, true,
                                          nullptr);
  probe->Shutdown();
  ReportServeLayer(run, load, publish_ms);
}

/// Writes the Chrome trace and runs `svqa_trace aggregate --require` on
/// it: self time per span family, and proof every family is present.
void FinishTrace(Run* run, std::vector<std::string> required) {
  required.insert(required.end(),
                  {"setup", "core.ingest", "replay.request", "query.parse",
                   "exec.execute", "ingest.layers", "vision.fit_bias",
                   "vision.detect", "vision.sgg", "aggregator.merge",
                   "graph.freeze", "storage.encode", "storage.decode",
                   "core.warm_start", "serve.request", "serve.generator_late",
                   "serve.submit", "serve.queue_wait", "serve.service",
                   "serve.publish"});
  if (!run->trace.WriteChromeJson(run->args.trace_out)) {
    run->checks.Require(false, "cannot write " + run->args.trace_out);
    return;
  }
  std::vector<std::string> cli = {"aggregate", run->args.trace_out};
  for (const std::string& name : required) {
    cli.push_back("--require");
    cli.push_back(name);
  }
  std::ostringstream out, err;
  const int rc = svqa_trace::RunCli(cli, out, err);
  std::printf("# svqa_trace aggregate %s (host micros)\n",
              run->args.trace_out.c_str());
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    std::printf("#   %s\n", line.c_str());
  }
  std::fputs(err.str().c_str(), stderr);
  run->checks.Require(rc == 0, "svqa_trace aggregate --require");
}

/// Reports the end-to-end metrics; every time and rate passed in is
/// already at the nominal clock.
void ReportEndToEnd(Run* run, const Setup& s, double p50_ms, double tail_ms,
                    double throughput, double cpu_us_per_op) {
  std::printf("# host clock: median %.4g GHz over %zu samples; times and "
              "rates below are at %.4g GHz\n",
              run->clock.MedianGHz(), run->clock.samples(),
              ClockProbe::kNominalGHz);
  Report* r = &run->report;
  r->Add("setup_s", s.setup_s, "s");
  r->Add("p50_ms", p50_ms, "ms");
  r->Add("tail_ms", tail_ms, "ms");
  r->Add("throughput_per_s", throughput, "1/s");
  r->Add("cpu_us_per_op", cpu_us_per_op, "us");
  r->Add("peak_rss_mb", PeakRssMiB(), "MiB");
}

std::vector<ReplayItem> StreamReplay(const QuestionStream& stream,
                                     const std::vector<std::string>& refs) {
  std::vector<ReplayItem> items;
  for (std::size_t i = 0; i < kReplayRequests; ++i) {
    const uint32_t q = stream.At(i);
    items.push_back({&stream.texts[q], nullptr, &refs[q]});
  }
  return items;
}

// ---- Workloads -------------------------------------------------------------------

/// ask_hot and ask_publish: open-loop questions through SvqaServer.
void RunAsk(Run* run) {
  const bool publish = run->args.workload == Workload::kAskPublish;
  const std::size_t workers = publish ? kPublishWorkers : kHotWorkers;
  const double rate = publish ? kPublishRate : kHotRate;
  Setup s = DoSetup(run, workers);
  core::SvqaEngine* engine = s.stack.engine.get();
  serve::SvqaServer* server = s.stack.server.get();

  const QuestionStream stream = MakeStream(s.ds, *engine, run->args.seed);
  const std::vector<std::string> refs_a =
      ReferenceAnswers(engine->merged(), stream.graphs, &run->checks);
  aggregator::MergedGraph graph_a, graph_b;  // what ask_publish publishes
  std::vector<std::string> refs_b;
  if (publish) {
    graph_a = engine->merged();
    const std::vector<vision::Scene>& scenes = s.ds.world.scenes;
    const std::vector<vision::Scene> prefix(
        scenes.begin(),
        scenes.begin() + static_cast<std::ptrdiff_t>(
                             kGraphBShare * static_cast<double>(scenes.size())));
    core::SvqaEngine builder;
    const Status st = builder.Ingest(s.ds.knowledge_graph, prefix);
    run->checks.Require(st.ok(), "graph B ingest: " + st.ToString());
    graph_b = builder.merged();
    refs_b = ReferenceAnswers(graph_b, stream.graphs, &run->checks);
  }
  const RefsFor refs = [&](uint64_t id) -> const std::vector<std::string>* {
    if (!publish) return &refs_a;
    return id == 0 ? nullptr : id % 2 == 1 ? &refs_a : &refs_b;
  };
  std::printf("# stream: %zu distinct questions at %.0f q/s on %zu workers%s\n",
              stream.texts.size(), rate, workers,
              publish ? ", a publish every 500 ms" : "");

  std::size_t cursor = 0;
  uint64_t published = 0;
  struct Window {
    OpenLoopResult load;
    CacheCounts cache;
    std::vector<double> publish_ms;
  };
  const auto window = [&](double seconds, bool traced) {
    Window w;
    CacheWindow cache(*engine->snapshot_store());
    std::unique_ptr<Publisher> pub;
    if (publish) {
      pub = std::make_unique<Publisher>(server, &graph_a, &graph_b,
                                        &published, &cache);
    }
    w.load = RunOpenLoop(server, stream, &cursor, rate, seconds, refs, run,
                         traced, pub.get());
    if (pub != nullptr) {
      pub->Stop();
      run->checks.Require(pub->ids_ok(), "publish ids alternate A and B");
      for (const Publisher::Record& rec : pub->records()) {
        w.publish_ms.push_back((rec.end - rec.start) / 1e3);
        run->Tracer(traced)->Add("serve.publish",
                                 kLanePublish + w.publish_ms.size(),
                                 rec.start, rec.end);
      }
    }
    w.cache = cache.Finish(*engine->snapshot_store());
    return w;
  };

  // The bursts come first, on the set-up's snapshot: the snapshot a
  // publishing window ends on is graph A or B depending on how many
  // publishes fit in it.
  const double capacity =
      run->args.trace ? 0 : BurstThroughput(server, stream, &cursor, refs, run);
  window(run->WarmUp(), false);
  if (!run->args.trace) {
    const Window w = window(run->args.seconds, false);
    ReportEndToEnd(
        run, s, WindowedPercentile(w.load.latency, 0.50, w.load.windows) / 1e3,
        WindowedPercentile(w.load.latency, kOpenLoopTail, w.load.windows) / 1e3,
        capacity, WindowQuartile(w.load.cpu_per_request, /*lower_is_better=*/true));
    std::printf("# %.0f requests timed; %zu publishes\n", w.load.completed,
                w.publish_ms.size());
    return;
  }

  const Window traced = window(run->args.seconds, true);
  ReportCacheLayer(run, traced.cache, traced.load.completed,
                   DistinctPathKeys(stream.graphs));
  ReportSharedLayers(
      run, &s, StreamReplay(stream, *refs(engine->snapshot_store()->latest_id())),
      s.ingest_ms, {});
  ReportServeLayer(run, traced.load,
                   publish ? traced.publish_ms
                           : IdlePublishes(run, server, *engine));
  run->ReportOverhead(
      WindowedPercentile(traced.load.latency, 0.50, traced.load.windows) / 1e3,
      /*lower_is_better=*/true);
  FinishTrace(run, {});
}

/// batch_cold: closed-loop ExecuteBatch over the long-tail graphs.
void RunBatchCold(Run* run) {
  Setup s = DoSetup(run, kHotWorkers);
  s.stack.server->Shutdown();  // this workload bypasses serve
  core::SvqaEngine* engine = s.stack.engine.get();
  const std::vector<query::QueryGraph> pool =
      LongTailGraphs(s.ds.world, kPoolSeed, kPoolSize);
  const std::vector<std::string> refs =
      ReferenceAnswers(engine->merged(), pool, &run->checks);
  std::printf("# pool: %zu distinct graphs, %.0f distinct path keys; "
              "batches of %zu on %zu threads\n",
              pool.size(), DistinctPathKeys(pool), kBatchSize, kBatchWorkers);

  exec::BatchOptions options;
  options.mode = exec::BatchMode::kThreaded;
  options.num_workers = kBatchWorkers;
  Rng rng(run->args.seed ^ 0xc01dULL);
  std::vector<uint32_t> deck(pool.size());
  for (std::size_t i = 0; i < deck.size(); ++i) deck[i] = static_cast<uint32_t>(i);

  struct Window {
    ClosedLoopOps batches{static_cast<double>(kBatchSize)};
    double queries = 0;
    CacheCounts cache;
  };
  const std::size_t windows = WindowsIn(run->args.seconds);
  const auto run_batch = [&](const std::vector<uint32_t>& idx, Window* w,
                             TraceRecorder* trace) {
    std::vector<query::QueryGraph> batch;
    batch.reserve(idx.size());
    for (uint32_t i : idx) batch.push_back(pool[i]);
    const double c0 = ProcessCpuMicros();
    const double t0 = NowMicros();
    const exec::BatchResult result = engine->ExecuteBatch(batch, options);
    const double t1 = NowMicros();
    const double c1 = ProcessCpuMicros();
    const double scale = run->clock.Sample();
    w->batches.Add(t0, (t1 - t0) * scale, (c1 - c0) * scale);
    w->queries += static_cast<double>(idx.size());
    trace->Add("exec.batch", run->next_tid++, t0, t1);
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const exec::QueryOutcome& o = result.outcomes[k];
      run->checks.Op(o.status.ok() && AnswerKey(o.answer) == refs[idx[k]],
                     [&] { return "batch query " + pool[idx[k]].question(); });
    }
  };
  const auto window = [&](double seconds, bool traced) {
    Window w;
    const serve::SnapshotPtr snap = engine->snapshot_store()->Current();
    const CacheCounts c0 = CacheCounts::Of(*snap);
    const double end = NowMicros() + seconds * 1e6;
    do {
      for (std::size_t i = 0; i < kBatchSize; ++i) {  // partial shuffle
        std::swap(deck[i], deck[i + rng.Below(deck.size() - i)]);
      }
      run_batch({deck.begin(), deck.begin() + kBatchSize}, &w,
                run->Tracer(traced));
    } while (NowMicros() < end);
    w.cache.AddDelta(CacheCounts::Of(*snap), c0);
    return w;
  };

  {  // warm-up: one pass over the whole pool
    Window warm;
    for (std::size_t i = 0; i < pool.size(); i += kBatchSize) {
      std::vector<uint32_t> idx;
      for (std::size_t k = i; k < std::min(pool.size(), i + kBatchSize); ++k) {
        idx.push_back(static_cast<uint32_t>(k));
      }
      run_batch(idx, &warm, &run->off);
    }
  }
  if (!run->args.trace) {
    const Window w = window(run->args.seconds, false);
    const ClosedLoopOps& b = w.batches;
    ReportEndToEnd(run, s, WindowedPercentile(b.wall_ms, 0.50, windows),
                   WindowedPercentile(b.wall_ms, kClosedLoopTail, windows),
                   b.Rate(windows), b.CpuPerWork(windows));
    std::printf("# %zu batches timed (%.0f queries)\n", b.wall_ms.size(),
                w.queries);
    return;
  }

  const Window traced = window(run->args.seconds, true);
  ReportCacheLayer(run, traced.cache, traced.queries, DistinctPathKeys(pool));
  // The replay executes pool graphs; parse timings come from the MVQA
  // question texts, since these graphs are built, not parsed.
  const QuestionStream stream = MakeStream(s.ds, *engine, run->args.seed);
  const std::vector<uint32_t> order =
      ShuffledOrder(pool.size(), 1, run->args.seed ^ 0x4e91ULL);
  std::vector<ReplayItem> items;
  for (std::size_t i = 0; i < kReplayRequests; ++i) {
    const uint32_t j = order[i % order.size()];
    items.push_back({&stream.texts[i % stream.texts.size()], &pool[j], &refs[j]});
  }
  ReportSharedLayers(run, &s, items, s.ingest_ms, {});
  ServeProbe(run, &s, stream,
             ReferenceAnswers(engine->merged(), stream.graphs, &run->checks));
  run->ReportOverhead(traced.batches.Rate(windows), /*lower_is_better=*/false);
  FinishTrace(run, {"exec.batch"});
}

/// ingest: closed loop of (fresh durable engine, Ingest, then
/// kRecoveriesPerIngest times: crash, WarmStart + one answer in a fresh
/// engine).
void RunIngest(Run* run) {
  Setup s = DoSetup(run, kHotWorkers);
  s.stack.server->Shutdown();  // this workload bypasses serve
  const QuestionStream stream =
      MakeStream(s.ds, *s.stack.engine, run->args.seed);

  const double images = static_cast<double>(s.ds.world.scenes.size());
  struct Window {
    explicit Window(double images_per_ingest) : ingests(images_per_ingest) {}
    std::vector<double> ingest_ms, warm_start_ms;  // raw (per-layer)
    // At the nominal clock (end-to-end):
    ClosedLoopOps ingests;
    std::vector<Sample> recovery_ms;
  };
  const std::size_t windows = WindowsIn(run->args.seconds);
  std::size_t cursor = 0;
  const auto iteration = [&](Window* w, TraceRecorder* trace) {
    storage::SimFs fs;
    std::vector<const std::string*> questions;
    for (int k = 0; k < kRecoveriesPerIngest; ++k) {
      questions.push_back(&stream.texts[stream.At(cursor++)]);
    }
    const uint64_t tid = run->next_tid++;
    std::string expected_text;
    std::vector<std::string> expected_answers;
    {
      core::SvqaEngine engine(EngineOptions(&fs));
      const double c0 = ProcessCpuMicros();
      const double t0 = NowMicros();
      const Status st = engine.Ingest(s.ds.knowledge_graph, s.ds.world.scenes);
      const double t1 = NowMicros();
      const double c1 = ProcessCpuMicros();
      const double scale = run->clock.Sample();
      run->checks.Op(st.ok(), [&] { return "ingest: " + st.ToString(); });
      if (!st.ok()) return;
      w->ingests.Add(t0, (t1 - t0) * scale, (c1 - c0) * scale);
      w->ingest_ms.push_back((t1 - t0) / 1e3);
      trace->Add("core.ingest", tid, t0, t1);
      for (const std::string* question : questions) {
        Result<exec::Answer> before = engine.Ask(*question);
        run->checks.Require(before.ok(), "answer before the crash");
        expected_answers.push_back(before.ok() ? AnswerKey(*before) : "");
      }
      expected_text = graph::ToText(engine.merged().graph);
    }
    for (int k = 0; k < kRecoveriesPerIngest; ++k) {
      const std::string& question = *questions[k];
      fs.SimulateCrash();  // drops nothing: every ack was synced
      fs.Restart();
      core::SvqaEngine engine(EngineOptions(&fs));
      const double t0 = NowMicros();
      Result<storage::RecoveryReport> rep = engine.WarmStart();
      const double t1 = NowMicros();
      Result<exec::Answer> after = engine.Ask(question);
      const double t2 = NowMicros();
      w->recovery_ms.push_back({t0, (t2 - t0) * run->clock.Sample() / 1e3});
      w->warm_start_ms.push_back((t1 - t0) / 1e3);
      const uint32_t root = trace->Add("core.recovery", tid, t0, t2);
      trace->Add("core.warm_start", tid, t0, t1, root);
      trace->Add("core.answer", tid, t1, t2, root);
      run->checks.Op(
          rep.ok() && after.ok() &&
              after->diagnostics.rung == exec::DegradationRung::kFullExecution &&
              AnswerKey(*after) == expected_answers[k] &&
              graph::ToText(engine.merged().graph) == expected_text,
          [&] { return "recovery, then " + question; });
    }
  };
  const auto window = [&](double seconds, bool traced) {
    Window w(images);
    const double end = NowMicros() + seconds * 1e6;
    do {
      iteration(&w, run->Tracer(traced));
    } while (NowMicros() < end);
    return w;
  };

  {
    Window warm(images);
    iteration(&warm, &run->off);
  }
  if (!run->args.trace) {
    const Window w = window(run->args.seconds, false);
    ReportEndToEnd(run, s, WindowedPercentile(w.recovery_ms, 0.50, windows),
                   WindowedPercentile(w.recovery_ms, kClosedLoopTail, windows),
                   w.ingests.Rate(windows), w.ingests.CpuPerWork(windows));
    std::printf("# %zu ingests and %zu recoveries timed\n", w.ingest_ms.size(),
                w.recovery_ms.size());
    return;
  }

  const Window traced = window(run->args.seconds, true);
  const std::vector<std::string> refs =
      ReferenceAnswers(s.stack.engine->merged(), stream.graphs, &run->checks);
  // The replay runs on the idle set-up snapshot, whose cache starts cold.
  const ReplayResult rp = ReportSharedLayers(
      run, &s, StreamReplay(stream, refs), traced.ingest_ms,
      traced.warm_start_ms);
  ReportCacheLayer(run, rp.cache, rp.n, DistinctPathKeys(stream.graphs));
  ServeProbe(run, &s, stream, refs);
  run->ReportOverhead(traced.ingests.Rate(windows), /*lower_is_better=*/false);
  FinishTrace(run, {"core.recovery", "core.answer"});
}

// ---- CLI ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  static const std::map<std::string, Workload> kWorkloads = {
      {"ask_hot", Workload::kAskHot},
      {"ask_publish", Workload::kAskPublish},
      {"batch_cold", Workload::kBatchCold},
      {"ingest", Workload::kIngest}};
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      auto it = kWorkloads.find(value);
      if (it == kWorkloads.end()) return false;
      args->workload = it->second;
      args->workload_name = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0) ||
          args->seconds > 60) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--untraced_primary") {
      args->untraced_primary = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->untraced_primary > 0)) {
        return false;
      }
    } else if (flag == "--trace_out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  // Each binary serves one mode; a traced run needs the untraced value.
  return have_workload && argc % 2 == 1 && args->trace == kTracedBuild &&
         (args->untraced_primary > 0) == args->trace;
}

}  // namespace
}  // namespace svqa_bench

int main(int argc, char** argv) {
  using namespace svqa_bench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: svqa_bench --workload "
                 "{ask_hot|ask_publish|batch_cold|ingest} --seed N "
                 "[--seconds S] [--trace 0]\n"
                 "       svqa_bench_traced --workload W --seed N "
                 "[--seconds S] --trace 1 --untraced_primary X "
                 "[--trace_out PATH]\n"
                 "X: the workload's p50_ms (ask_*) or throughput_per_s "
                 "(batch_cold, ingest) from svqa_bench. This binary is %s.\n",
                 kTracedBuild ? "svqa_bench_traced" : "svqa_bench");
    return 2;
  }
  Run run(args);
  std::printf("# svqa_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  switch (args.workload) {
    case Workload::kAskHot:
    case Workload::kAskPublish:
      RunAsk(&run);
      break;
    case Workload::kBatchCold:
      RunBatchCold(&run);
      break;
    case Workload::kIngest:
      RunIngest(&run);
      break;
  }
  // Per-layer times stay raw host times; this is the clock they ran at.
  if (args.trace) run.report.Add("host.clock_ghz", run.clock.MedianGHz(), "GHz");
  run.report.PrintLines();
  const bool correct =
      run.checks.ok && run.checks.failed == 0 && run.report.AllFinite();
  std::printf("# checks: %llu operations, %llu failed: %s\n",
              static_cast<unsigned long long>(run.checks.attempted),
              static_cast<unsigned long long>(run.checks.failed),
              correct ? "correct" : "INCORRECT");
  run.report.PrintJson(correct, std::max<uint64_t>(1, run.checks.attempted),
                       run.checks.failed);
  return correct ? 0 : 1;
}
