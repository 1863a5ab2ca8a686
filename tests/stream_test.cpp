// Streaming reconciler daemon (DESIGN.md §15).
//
// The contract under test: a StreamReconciler fed the same logs as a batch
// `Reconciler::run()` — in ANY per-log-order-preserving interleaving, with
// ANY epoch batch size, under either backend — finishes with the identical
// merged schedule, statuses and final state. Plus the commit discipline
// (greedy + replica-at-a-time arrival never violates a commitment), the
// incremental constraint graph's element-for-element equality with the
// batch builder, the threaded daemon, and streaming-capture replay.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "arrivals.hpp"
#include "capture/capture_sink.hpp"
#include "capture/replay_engine.hpp"
#include "capture/wire_log_format.hpp"
#include "core/reconciler.hpp"
#include "solver/components.hpp"
#include "solver/graph.hpp"
#include "solver/local_search.hpp"
#include "stream/daemon.hpp"
#include "stream/stream_spec_codec.hpp"
#include "test_helpers.hpp"
#include "workload/generators.hpp"

namespace icecube {
namespace {

using testing::Arrival;
using testing::make_arrivals;
using workload::FagesSpec;
using workload::Generated;
using workload::fages_workload;

/// A run reduced to canonical, id-space-free form: executed actions as
/// stream-priority keys in schedule order, everything else as a sorted key
/// set, and the final-state digest.
struct CanonicalRun {
  std::vector<std::uint64_t> executed;
  std::vector<std::uint64_t> not_executed;
  std::uint64_t state_digest = 0;
};

CanonicalRun run_batch(const Generated& gen, SolverKind backend) {
  ReconcilerOptions options;
  options.backend = backend;
  // Force the sparse component-decomposed path regardless of problem size;
  // that is the construction the daemon's equivalence contract names.
  options.dense_graph_limit = 0;
  Reconciler reconciler(gen.initial, gen.logs, options);
  const ReconcileResult result = reconciler.run();
  EXPECT_FALSE(result.outcomes.empty());
  const Outcome& best = result.outcomes.front();
  const std::vector<ActionRecord>& records = reconciler.records();
  CanonicalRun run;
  for (ActionId id : best.schedule) {
    run.executed.push_back(stream_priority(records[id.index()]));
  }
  for (ActionId id : best.skipped) {
    run.not_executed.push_back(stream_priority(records[id.index()]));
  }
  for (ActionId id : best.cutset) {
    run.not_executed.push_back(stream_priority(records[id.index()]));
  }
  std::sort(run.not_executed.begin(), run.not_executed.end());
  run.state_digest = universe_state_digest(best.final_state);
  return run;
}

CanonicalRun canonical(const StreamResult& result,
                       const std::vector<ActionRecord>& records) {
  CanonicalRun run;
  for (std::size_t i = 0; i < result.sequence.size(); ++i) {
    const std::uint64_t key =
        stream_priority(records[result.sequence[i].index()]);
    if (result.status[i] == RunStatus::kExecuted) {
      run.executed.push_back(key);
    } else {
      run.not_executed.push_back(key);
    }
  }
  std::sort(run.not_executed.begin(), run.not_executed.end());
  run.state_digest = universe_state_digest(result.outcome.final_state);
  return run;
}

struct CoreRun {
  CanonicalRun canon;
  StreamCounters counters;
  std::vector<CommitEntry> committed;
  std::vector<std::uint64_t> keys;  ///< daemon id -> stream priority
  std::vector<RunStatus> final_status;  ///< daemon id -> merged status
  std::uint64_t latency_count = 0;
};

CoreRun run_core(const Generated& gen, const std::vector<Arrival>& arrivals,
                 SolverKind backend, std::size_t batch) {
  StreamOptions options;
  options.backend = backend;
  StreamReconciler core(gen.initial, options);
  std::size_t since_epoch = 0;
  for (const Arrival& a : arrivals) {
    core.ingest(a.log, a.action);
    if (batch > 0 && ++since_epoch >= batch) {
      core.run_epoch();
      since_epoch = 0;
    }
  }
  if (batch > 0) core.run_epoch();
  const StreamResult result = core.finish();
  CoreRun run;
  run.canon = canonical(result, core.graph().records());
  run.counters = core.counters();
  run.committed = core.committed();
  run.latency_count = core.commit_latency().count();
  for (const ActionRecord& rec : core.graph().records()) {
    run.keys.push_back(stream_priority(rec));
  }
  run.final_status.resize(result.sequence.size(), RunStatus::kDropped);
  for (std::size_t i = 0; i < result.sequence.size(); ++i) {
    run.final_status[result.sequence[i].index()] = result.status[i];
  }
  return run;
}

// --- equivalence with batch reconciliation --------------------------------

TEST(StreamEquivalence, AnyArrivalAnyBatchAnyBackendMatchesBatch) {
  FagesSpec spec;
  spec.seed = 7;
  const Generated gen = fages_workload(spec);
  const StreamArrival kModes[] = {StreamArrival::kFlatten,
                                  StreamArrival::kRoundRobin,
                                  StreamArrival::kShuffled};
  const std::size_t kBatches[] = {1, 7, 64, 0};
  for (SolverKind backend : {SolverKind::kGreedy, SolverKind::kLocalSearch}) {
    const CanonicalRun batch = run_batch(gen, backend);
    EXPECT_FALSE(batch.executed.empty());
    for (StreamArrival mode : kModes) {
      for (std::size_t epoch_batch : kBatches) {
        SCOPED_TRACE(std::string(to_string(backend)) + "/" +
                     std::string(to_string(mode)) + "/batch=" +
                     std::to_string(epoch_batch));
        const CoreRun stream =
            run_core(gen, make_arrivals(gen, mode), backend, epoch_batch);
        EXPECT_EQ(stream.canon.executed, batch.executed);
        EXPECT_EQ(stream.canon.not_executed, batch.not_executed);
        EXPECT_EQ(stream.canon.state_digest, batch.state_digest);
        EXPECT_EQ(stream.counters.ingested, stream.keys.size());
      }
    }
  }
}

TEST(StreamEquivalence, MultipleSeedsAndShapes) {
  for (std::uint64_t seed : {1ULL, 3ULL, 11ULL}) {
    FagesSpec spec;
    spec.seed = seed;
    spec.replicas = 4;
    spec.tasks_per_replica = 25;
    spec.conflict_ratio = 0.4;
    const Generated gen = fages_workload(spec);
    const CanonicalRun batch = run_batch(gen, SolverKind::kGreedy);
    const CoreRun stream = run_core(
        gen, make_arrivals(gen, StreamArrival::kShuffled, seed * 77 + 1),
        SolverKind::kGreedy, 5);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_EQ(stream.canon.executed, batch.executed);
    EXPECT_EQ(stream.canon.not_executed, batch.not_executed);
    EXPECT_EQ(stream.canon.state_digest, batch.state_digest);
  }
}

// --- commit discipline ----------------------------------------------------

TEST(StreamCommit, GreedyFlattenNeverViolatesACommitment) {
  FagesSpec spec;
  spec.seed = 5;
  const Generated gen = fages_workload(spec);
  const CoreRun run = run_core(gen, make_arrivals(gen, StreamArrival::kFlatten),
                               SolverKind::kGreedy, 1);
  EXPECT_EQ(run.counters.commit_violations, 0u);
  // Replica-at-a-time arrival keeps priorities ascending, so every arrival
  // takes the O(1) append path; the full-resolve counter stays at zero.
  EXPECT_EQ(run.counters.full_resolves, 0u);
  EXPECT_EQ(run.counters.fast_appends, run.counters.ingested);
  // Everything commits (at the latest in finish), exactly once.
  EXPECT_EQ(run.committed.size(), run.counters.ingested);
  EXPECT_EQ(run.counters.committed, run.counters.ingested);
  EXPECT_EQ(run.latency_count, run.counters.ingested);
}

TEST(StreamCommit, CommittedLogEqualsFinalMergeUnderGreedyFlatten) {
  FagesSpec spec;
  spec.seed = 9;
  const Generated gen = fages_workload(spec);
  const CoreRun run = run_core(gen, make_arrivals(gen, StreamArrival::kFlatten),
                               SolverKind::kGreedy, 4);
  // The committed prefix, replayed in commitment order, is the final merged
  // sequence — same actions, same order, same statuses.
  ASSERT_EQ(run.committed.size(), run.canon.executed.size() +
                                      run.canon.not_executed.size());
  std::vector<std::uint64_t> committed_executed;
  for (const CommitEntry& entry : run.committed) {
    EXPECT_EQ(entry.status, run.final_status[entry.id.index()]);
    if (entry.status == RunStatus::kExecuted) {
      committed_executed.push_back(run.keys[entry.id.index()]);
    }
  }
  EXPECT_EQ(committed_executed, run.canon.executed);
}

TEST(StreamCommit, ViolationsAreCountedNotHidden) {
  // Adversarial arrival (shuffled, tiny batches) may flip statuses after
  // commitment; the daemon must count those flips, never crash, and still
  // converge to the batch answer (checked by the equivalence suite). Here:
  // every ingested action ends up committed exactly once.
  FagesSpec spec;
  spec.seed = 13;
  const Generated gen = fages_workload(spec);
  const CoreRun run =
      run_core(gen, make_arrivals(gen, StreamArrival::kShuffled, 99),
               SolverKind::kGreedy, 1);
  EXPECT_EQ(run.committed.size(), run.counters.ingested);
  EXPECT_EQ(run.counters.committed, run.counters.ingested);
  // Each action commits exactly once; a commitment the final merge
  // contradicts must be accounted as a violation (a promise may be broken,
  // but never silently).
  std::vector<int> seen(run.keys.size(), 0);
  std::uint64_t broken = 0;
  for (const CommitEntry& entry : run.committed) {
    EXPECT_EQ(++seen[entry.id.index()], 1);
    if (entry.status != run.final_status[entry.id.index()]) ++broken;
  }
  EXPECT_LE(broken, run.counters.commit_violations);
}

// --- arrival order ---------------------------------------------------------

TEST(ArrivalOrder, RoundRobinIsPositionMajorOverUnequalLogs) {
  // Logs of sizes 1, 3, 3: once log 0 runs dry, the other two still
  // alternate position by position.
  std::vector<Log> logs;
  for (const std::size_t size : {1U, 3U, 3U}) {
    std::vector<ActionPtr> actions;
    for (std::size_t p = 0; p < size; ++p) {
      actions.push_back(std::make_shared<testing::NopAction>(
          "op", std::vector<ObjectId>{}));
    }
    logs.push_back(
        testing::make_log("l" + std::to_string(logs.size()), actions));
  }
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> want{
      {0, 0}, {1, 0}, {2, 0}, {1, 1}, {2, 1}, {1, 2}, {2, 2}};
  EXPECT_EQ(arrival_order(logs, StreamArrival::kRoundRobin, 1), want);
}

// --- incremental constraint graph ----------------------------------------

TEST(IncrementalGraph, MatchesBatchBuilderUnderInterleavedArrival) {
  FagesSpec spec;
  spec.seed = 21;
  const Generated gen = fages_workload(spec);
  for (StreamArrival mode :
       {StreamArrival::kRoundRobin, StreamArrival::kShuffled}) {
    SCOPED_TRACE(std::string(to_string(mode)));
    const std::vector<Arrival> arrivals = make_arrivals(gen, mode, 17);
    IncrementalConstraintGraph incremental(gen.initial);
    std::vector<ActionRecord> records;
    std::vector<std::size_t> next(gen.logs.size(), 0);
    for (const Arrival& a : arrivals) {
      const std::size_t pos = next[a.log.index()]++;
      incremental.add_action(a.action, a.log, pos);
      records.push_back({a.action, a.log, pos});
    }
    ConstraintBuildStats batch_stats;
    const SolverGraph batch =
        build_solver_graph(gen.initial, records, &batch_stats);
    const SolverGraph& inc = incremental.graph();
    ASSERT_EQ(inc.n, batch.n);
    for (std::size_t i = 0; i < batch.n; ++i) {
      EXPECT_EQ(inc.preds[i], batch.preds[i]) << "preds of " << i;
      EXPECT_EQ(inc.succs[i], batch.succs[i]) << "succs of " << i;
      EXPECT_EQ(inc.overlap_lists[i], batch.overlap_lists[i])
          << "overlap of " << i;
    }
    // The same `maybe` directions; each builder lists them in its own
    // evaluation order.
    auto inc_maybe = inc.maybe;
    auto batch_maybe = batch.maybe;
    std::sort(inc_maybe.begin(), inc_maybe.end());
    std::sort(batch_maybe.begin(), batch_maybe.end());
    EXPECT_EQ(inc_maybe, batch_maybe);
    EXPECT_FALSE(batch_maybe.empty());
    // Same pair evaluations as the batch builder — the O(overlap) claim.
    EXPECT_EQ(incremental.build_stats().pairs_evaluated,
              batch_stats.pairs_evaluated);
    EXPECT_EQ(incremental.build_stats().target_set_builds,
              batch_stats.target_set_builds);
    EXPECT_EQ(incremental.build_stats().order_calls, batch_stats.order_calls);
    EXPECT_GT(batch_stats.order_calls, 0u);
  }
}

TEST(IncrementalGraph, MatchesBatchBuilderWithRepeatedTargets) {
  // An action listing a target twice pairs with itself, and every pair it
  // forms shares that target once: the same lists and the same `order()`
  // calls as the batch build.
  const testing::ScriptedObject::OrderFn table =
      [](const Action& a, const Action& b, LogRelation) {
        if (a.tag().op == b.tag().op) return Constraint::kUnsafe;
        return a.tag().op < b.tag().op ? Constraint::kMaybe
                                       : Constraint::kSafe;
      };
  Universe u;
  const ObjectId x = u.add(std::make_unique<testing::ScriptedObject>(table));
  const ObjectId y = u.add(std::make_unique<testing::ScriptedObject>(table));
  const auto action = [](const char* op, std::vector<ObjectId> targets) {
    return std::make_shared<testing::NopAction>(op, std::move(targets));
  };
  const std::vector<ActionRecord> records{
      {action("p", {x, x}), LogId(0), 0},
      {action("q", {x, y}), LogId(0), 1},
      {action("r", {y, x, y}), LogId(1), 0},
      {action("p", {y}), LogId(1), 1}};
  IncrementalConstraintGraph incremental(u);
  for (const ActionRecord& r : records) {
    incremental.add_action(r.action, r.log, r.position);
  }
  ConstraintBuildStats batch_stats;
  const SolverGraph batch = build_solver_graph(u, records, &batch_stats);
  const SolverGraph& inc = incremental.graph();
  for (std::size_t i = 0; i < batch.n; ++i) {
    EXPECT_EQ(inc.preds[i], batch.preds[i]) << "preds of " << i;
    EXPECT_EQ(inc.succs[i], batch.succs[i]) << "succs of " << i;
    EXPECT_EQ(inc.overlap_lists[i], batch.overlap_lists[i])
        << "overlap of " << i;
  }
  EXPECT_EQ(incremental.build_stats().pairs_evaluated,
            batch_stats.pairs_evaluated);
  EXPECT_EQ(incremental.build_stats().target_set_builds,
            batch_stats.target_set_builds);
  EXPECT_EQ(incremental.build_stats().order_calls, batch_stats.order_calls);
}

TEST(IncrementalGraph, DirtyRootsCoverExactlyTheTouchedComponents) {
  FagesSpec spec;
  spec.seed = 2;
  spec.replicas = 2;
  spec.tasks_per_replica = 10;
  const Generated gen = fages_workload(spec);
  IncrementalConstraintGraph graph(gen.initial);
  std::vector<std::size_t> next(gen.logs.size(), 0);
  const std::vector<Arrival> arrivals =
      make_arrivals(gen, StreamArrival::kFlatten);
  std::size_t added = 0;
  for (const Arrival& a : arrivals) {
    graph.add_action(a.action, a.log, next[a.log.index()]++);
    ++added;
    if (added % 5 == 0) {
      const std::vector<ActionId> dirty = graph.take_dirty_roots();
      EXPECT_FALSE(dirty.empty());
      for (ActionId root : dirty) {
        EXPECT_EQ(graph.component_root(root), root);
      }
      // Drained: nothing dirty until the next arrival.
      EXPECT_TRUE(graph.take_dirty_roots().empty());
    }
  }
}

// --- the threaded daemon --------------------------------------------------

TEST(StreamDaemon, ThreadedIngestMatchesBatch) {
  FagesSpec spec;
  spec.seed = 31;
  const Generated gen = fages_workload(spec);
  const CanonicalRun batch = run_batch(gen, SolverKind::kGreedy);
  StreamOptions options;
  StreamDaemon daemon(gen.initial, options, /*max_batch=*/32);
  for (const Arrival& a : make_arrivals(gen, StreamArrival::kFlatten)) {
    daemon.submit(a.log, a.action);
  }
  const StreamResult result = daemon.finish();
  const CanonicalRun streamed =
      canonical(result, daemon.reconciler().graph().records());
  EXPECT_EQ(streamed.executed, batch.executed);
  EXPECT_EQ(streamed.not_executed, batch.not_executed);
  EXPECT_EQ(streamed.state_digest, batch.state_digest);
  EXPECT_GT(daemon.reconciler().counters().epochs, 0u);
}

// --- spec codec and capture replay ---------------------------------------

TEST(StreamCodec, SpecRoundTripsThroughWireText) {
  StreamSpec spec;
  spec.workload.replicas = 5;
  spec.workload.tasks_per_replica = 17;
  spec.workload.dependency_density = 2.25;
  spec.workload.conflict_ratio = 0.375;
  spec.workload.shared_resources = 3;
  spec.workload.resource_capacity = 2;
  spec.workload.seed = 77;
  spec.backend = SolverKind::kLocalSearch;
  spec.arrival = StreamArrival::kShuffled;
  spec.arrival_seed = 123;
  spec.batch = 9;
  spec.commit_quiescence = 3;
  const StreamSpecDecode decoded = decode_stream_spec(encode_stream_spec(spec));
  ASSERT_TRUE(decoded.ok()) << decoded.error.message();
  EXPECT_EQ(encode_stream_spec(decoded.spec), encode_stream_spec(spec));
  EXPECT_EQ(decoded.spec.backend, SolverKind::kLocalSearch);
  EXPECT_EQ(decoded.spec.arrival, StreamArrival::kShuffled);
  EXPECT_EQ(decoded.spec.batch, 9u);
}

TEST(StreamCodec, RejectsGarbage) {
  EXPECT_FALSE(decode_stream_spec("").ok());
  EXPECT_FALSE(decode_stream_spec("chaos-spec 1\n").ok());
  EXPECT_FALSE(decode_stream_spec("stream-spec 2\n").ok());
  EXPECT_FALSE(decode_stream_spec("stream-spec 1\nbackend dfs9\n").ok());
}

std::string capture_bytes(const std::vector<CaptureRecord>& records) {
  std::string bytes = encode_capture_header();
  for (const CaptureRecord& record : records) {
    append_capture_frame(bytes, record);
  }
  return bytes;
}

TEST(StreamCapture, CapturedRunReplaysFaithfully) {
  StreamSpec spec;
  spec.workload.tasks_per_replica = 15;
  spec.arrival = StreamArrival::kShuffled;
  spec.batch = 8;
  MemoryCaptureSink sink;
  const StreamRunReport report = run_stream_captured(spec, sink);
  ASSERT_FALSE(sink.records().empty());
  EXPECT_EQ(sink.records().front().kind, CaptureRecordKind::kSpec);
  EXPECT_EQ(sink.records().back().kind, CaptureRecordKind::kSummary);
  const ReplayResult replay = replay_capture(capture_bytes(sink.records()), {});
  EXPECT_TRUE(replay.error.ok()) << replay.error.message();
  EXPECT_TRUE(replay.faithful())
      << (replay.divergence ? replay.divergence->to_json() : "crc mismatch");
  EXPECT_EQ(replay.frames_compared, replay.recorded_frames);
  EXPECT_TRUE(replay.crc_checked);
  EXPECT_TRUE(replay.crc_match);
  EXPECT_EQ(replay.report.trace_crc, report.trace_crc);
}

TEST(StreamCapture, TamperedFrameIsFlaggedAsDivergent) {
  StreamSpec spec;
  spec.workload.tasks_per_replica = 10;
  MemoryCaptureSink sink;
  (void)run_stream_captured(spec, sink);
  std::vector<CaptureRecord> records = sink.take();
  // Flip one recorded ingest payload; the re-run regenerates the true one.
  bool tampered = false;
  for (CaptureRecord& record : records) {
    if (record.kind == CaptureRecordKind::kAction) {
      record.payload += " tampered";
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered);
  const ReplayResult replay = replay_capture(capture_bytes(records), {});
  EXPECT_TRUE(replay.error.ok()) << replay.error.message();
  EXPECT_FALSE(replay.faithful());
  ASSERT_TRUE(replay.divergence.has_value());
}

TEST(StreamCapture, LocalSearchBackendReplaysFaithfully) {
  StreamSpec spec;
  spec.workload.tasks_per_replica = 12;
  spec.backend = SolverKind::kLocalSearch;
  spec.arrival = StreamArrival::kRoundRobin;
  spec.batch = 16;
  MemoryCaptureSink sink;
  (void)run_stream_captured(spec, sink);
  const ReplayResult replay = replay_capture(capture_bytes(sink.records()), {});
  EXPECT_TRUE(replay.faithful())
      << (replay.divergence ? replay.divergence->to_json() : "crc mismatch");
}

}  // namespace
}  // namespace icecube
