// Streaming daemon throughput and commit latency (DESIGN.md §15): the
// threaded StreamDaemon — a producer thread feeding the SPSC ring while the
// consumer maintains the incremental constraint graph and emits committed
// prefixes — on the Fages-style workload family from bench_solvers, at
// sizes up to ~1M actions.
//
// Per row it reports sustained ingest (actions/sec, measured from the first
// submit through finish()), p50/p99 commit latency, and the daemon's work
// counters: fast appends vs full re-solves, pairs evaluated by the
// incremental graph, epochs, commit violations, peak commit lag. The
// comparable batch numbers live in BENCH_solvers.json (greedy rows); the
// daemon's rate can be read directly against them.
//
// The binary doubles as a gate: under greedy + in-log-order arrival every
// Fages static edge is intra-log, so each row must place every action on
// the fast path with zero full re-solves and zero commit violations — a
// violation exits non-zero, which the CI stream smoke enforces. The
// shuffled-arrival row exercises full re-solves on purpose and only gates
// on completion.
//
// `--json <path>` writes one record per row (see JsonSink::record_stream);
// `--max-n <n>` skips larger families (the smoke run uses 100,000);
// `--min-ingest <r>` optionally gates the flatten rows' rate.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "stream/daemon.hpp"
#include "stream/stream_spec_codec.hpp"
#include "workload/generators.hpp"

using namespace icecube;

namespace {

struct Row {
  const char* label;
  int tasks_per_replica;
  StreamArrival arrival;
  SolverKind backend;
  bool gate_all_fast;  ///< require 100% fast appends, zero violations
};

struct RowNumbers {
  std::size_t actions = 0;
  double wall = 0.0;
  double rate = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  StreamCounters counters;
  SearchStats stats;
};

/// Submit everything up front, in the library's arrival order (the
/// shuffled rows draw from seed 7), so the timed loop measures the ring and
/// the daemon, not the workload generator.
std::vector<std::pair<LogId, ActionPtr>> materialize(
    const workload::Generated& gen, StreamArrival arrival) {
  std::vector<std::pair<LogId, ActionPtr>> arrivals;
  for (const auto& [l, p] : arrival_order(gen.logs, arrival, 7)) {
    arrivals.emplace_back(LogId(l), gen.logs[l].ptr(p));
  }
  return arrivals;
}

RowNumbers run_row(const Row& row) {
  workload::FagesSpec spec;
  spec.replicas = 3;
  spec.tasks_per_replica = row.tasks_per_replica;
  // Scale the resource pool with n so conflict density per resource stays
  // roughly constant across sizes (as bench_solvers does).
  spec.shared_resources = std::max(8, row.tasks_per_replica / 25);
  spec.seed = 1;
  const workload::Generated gen = workload::fages_workload(spec);

  StreamOptions options;
  options.backend = row.backend;
  options.commit_quiescence = 1;

  std::vector<std::pair<LogId, ActionPtr>> arrivals =
      materialize(gen, row.arrival);

  RowNumbers out;
  out.actions = arrivals.size();
  StreamDaemon daemon(gen.initial, options, /*max_batch=*/4096);
  const std::uint64_t t0 = stream_now_ns();
  for (auto& [log, action] : arrivals) {
    daemon.submit(log, std::move(action));
  }
  const StreamResult result = daemon.finish();
  out.wall = static_cast<double>(stream_now_ns() - t0) * 1e-9;
  (void)result;
  out.counters = daemon.reconciler().counters();
  out.stats = daemon.reconciler().stats();
  out.p50_ms = daemon.reconciler().commit_latency().quantile_ms(0.50);
  out.p99_ms = daemon.reconciler().commit_latency().quantile_ms(0.99);
  if (out.wall > 0.0) {
    out.rate = static_cast<double>(out.counters.ingested) / out.wall;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonSink json(argc, argv);
  std::size_t max_n = 1'000'000;
  double min_ingest = 0.0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--max-n") == 0) {
      max_n = static_cast<std::size_t>(std::strtoull(argv[i + 1], nullptr, 10));
    } else if (std::strcmp(argv[i], "--min-ingest") == 0) {
      min_ingest = std::strtod(argv[i + 1], nullptr);
    }
  }

  const Row rows[] = {
      {"stream/greedy/flatten", 10'000, StreamArrival::kFlatten,
       SolverKind::kGreedy, true},
      {"stream/greedy/flatten", 100'000, StreamArrival::kFlatten,
       SolverKind::kGreedy, true},
      {"stream/greedy/flatten", 333'333, StreamArrival::kFlatten,
       SolverKind::kGreedy, true},
      {"stream/greedy/shuffled", 10'000, StreamArrival::kShuffled,
       SolverKind::kGreedy, false},
      // Streamed local search re-solves every dirty component each epoch —
      // orders of magnitude more work than the greedy fast path by design —
      // so its row stays small; it is here to show the cost, not to race.
      {"stream/ls/flatten", 2'000, StreamArrival::kFlatten,
       SolverKind::kLocalSearch, false},
  };

  std::printf("%-26s %9s %12s %9s %9s %7s %10s %7s %5s %8s %12s\n",
              "configuration", "actions", "rate(a/s)", "p50(ms)", "p99(ms)",
              "epochs", "fast", "full", "viol", "max-lag", "pairs");
  bool ok = true;
  for (const Row& row : rows) {
    const std::size_t n =
        static_cast<std::size_t>(row.tasks_per_replica) * 3;
    if (n > max_n) continue;
    const RowNumbers r = run_row(row);
    std::printf(
        "%-26s %9zu %12.0f %9.3f %9.3f %7" PRIu64 " %10" PRIu64 " %7" PRIu64
        " %5" PRIu64 " %8" PRIu64 " %12" PRIu64 "\n",
        row.label, r.actions, r.rate, r.p50_ms, r.p99_ms, r.counters.epochs,
        r.counters.fast_appends, r.counters.full_resolves,
        r.counters.commit_violations, r.counters.max_commit_lag,
        r.stats.constraint_pairs_evaluated);
    json.record_stream(std::string(row.label), r.actions, r.wall, r.rate,
                       r.p50_ms, r.p99_ms, r.counters.fast_appends,
                       r.counters.full_resolves, r.stats);
    if (r.counters.committed != r.counters.ingested) {
      std::fprintf(stderr, "GATE: %s committed %" PRIu64 " of %" PRIu64 "\n",
                   row.label, r.counters.committed, r.counters.ingested);
      ok = false;
    }
    if (row.gate_all_fast &&
        (r.counters.full_resolves != 0 || r.counters.commit_violations != 0 ||
         r.counters.fast_appends != r.counters.ingested)) {
      std::fprintf(stderr,
                   "GATE: %s expected all-fast-append (fast %" PRIu64
                   ", full %" PRIu64 ", violations %" PRIu64 ")\n",
                   row.label, r.counters.fast_appends,
                   r.counters.full_resolves, r.counters.commit_violations);
      ok = false;
    }
    if (row.gate_all_fast && min_ingest > 0.0 && r.rate < min_ingest) {
      std::fprintf(stderr, "GATE: %s rate %.0f below --min-ingest %.0f\n",
                   row.label, r.rate, min_ingest);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
