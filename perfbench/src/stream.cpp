// Streaming workloads: StreamReconciler driven directly from the benchmark
// thread in a closed loop (one producer, a fixed batch of arrivals per
// run_epoch()), with arrivals in per-log order or interleaved round-robin
// across replicas.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/policy.hpp"
#include "core/reconciler.hpp"
#include "solver/components.hpp"
#include "solver/local_search.hpp"
#include "stream/daemon.hpp"
#include "workload/generators.hpp"

namespace perfbench {
namespace {

using namespace icecube;

constexpr std::size_t kEpochBatch = 4096;

/// A result in id-space-free form: executed actions as stream-priority
/// keys in schedule order, the rest as a sorted key set, and the final
/// state digest. Batch and streamed runs of the same logs must agree on it.
struct Canonical {
  std::vector<std::uint64_t> executed;
  std::vector<std::uint64_t> not_executed;
  std::uint64_t state_digest = 0;

  friend bool operator==(const Canonical&, const Canonical&) = default;
};

struct Arrival {
  LogId log;
  ActionPtr action;
};

class StreamWorkload final : public Workload {
 public:
  explicit StreamWorkload(bool interleaved) : interleaved_(interleaved) {}

  void setup(std::uint64_t seed) override {
    workload::FagesSpec spec;
    spec.replicas = kReplicas;
    spec.tasks_per_replica = interleaved_ ? 20'000 : 100'000;
    spec.shared_resources = std::max(8, spec.tasks_per_replica / 25);
    spec.seed = derive_seed(seed, interleaved_ ? 0x51 : 0x50, 0);
    gen_ = workload::fages_workload(spec);

    arrivals_.clear();
    std::vector<std::size_t> next(gen_.logs.size(), 0);
    std::size_t total = 0;
    for (const Log& log : gen_.logs) total += log.size();
    arrivals_.reserve(total);
    while (arrivals_.size() < total) {
      for (std::size_t l = 0; l < gen_.logs.size(); ++l) {
        // In order: drain log l before moving on; interleaved: one
        // arrival per replica per round.
        const std::size_t take =
            interleaved_ ? 1 : gen_.logs[l].size() - next[l];
        for (std::size_t k = 0; k < take && next[l] < gen_.logs[l].size();
             ++k) {
          arrivals_.push_back({LogId(static_cast<std::uint32_t>(l)),
                               gen_.logs[l].ptr(next[l]++)});
        }
      }
    }

    // The exactness contract's reference: batch greedy over the same logs.
    ReconcilerOptions options;
    options.backend = SolverKind::kGreedy;
    options.threads = 1;
    Reconciler reconciler(gen_.initial, gen_.logs, options);
    const ReconcileResult result = reconciler.run();
    const Outcome& best = result.best();
    reference_ = {};
    const std::vector<ActionRecord>& records = reconciler.records();
    for (ActionId id : best.schedule) {
      reference_.executed.push_back(stream_priority(records[id.index()]));
    }
    for (const auto* ids : {&best.skipped, &best.cutset}) {
      for (ActionId id : *ids) {
        reference_.not_executed.push_back(
            stream_priority(records[id.index()]));
      }
    }
    std::sort(reference_.not_executed.begin(), reference_.not_executed.end());
    reference_.state_digest = universe_state_digest(best.final_state);
    latencies_ms_.clear();
    early_ = 0;
    committed_total_ = 0;
  }

  PassResult pass(Tracer* tracer) override {
    const std::uint32_t ingest_span =
        tracer ? tracer->intern("stream.ingest") : 0;
    const std::uint32_t epoch_span =
        tracer ? tracer->intern("stream.epoch") : 0;
    const std::uint32_t finish_span =
        tracer ? tracer->intern("stream.finish") : 0;

    PassResult out;
    const std::size_t n = arrivals_.size();
    std::vector<std::uint64_t> ingest_start(n, 0);
    std::vector<double> pass_latencies;
    pass_latencies.reserve(n);
    std::vector<double> ingest_ns;    // traced: per-arrival ingest cost
    std::vector<double> epoch_ms;     // traced: per-epoch wall time
    if (tracer != nullptr) ingest_ns.reserve(n);

    StreamOptions options;
    options.backend = SolverKind::kGreedy;
    StreamReconciler core(gen_.initial, options);
    std::size_t seen = 0;
    // Every entry committed() gained during the call that just ended at
    // `end` gets its latency from the start of its ingest() call.
    const auto collect = [&](std::uint64_t end) {
      const std::vector<CommitEntry>& committed = core.committed();
      for (; seen < committed.size(); ++seen) {
        const std::size_t id = committed[seen].id.index();
        if (id < n) {
          pass_latencies.push_back(
              static_cast<double>(end - ingest_start[id]) * 1e-6);
        }
      }
    };
    const auto epoch = [&] {
      const std::uint64_t start = now_ns();
      {
        Scope span(tracer, epoch_span);
        core.run_epoch();
      }
      const std::uint64_t end = now_ns();
      if (tracer != nullptr) {
        epoch_ms.push_back(static_cast<double>(end - start) * 1e-6);
      }
      collect(end);
    };

    const Section timed;
    std::size_t since_epoch = 0;
    bool ids_ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t start = now_ns();
      ActionId id;
      {
        Scope span(tracer, ingest_span);
        id = core.ingest(arrivals_[i].log, arrivals_[i].action);
      }
      if (tracer != nullptr) {
        ingest_ns.push_back(static_cast<double>(now_ns() - start));
      }
      if (id.index() < n) {
        ingest_start[id.index()] = start;
      } else {
        ids_ok = false;
      }
      if (++since_epoch == kEpochBatch) {
        epoch();
        since_epoch = 0;
      }
    }
    if (since_epoch > 0) epoch();
    const std::size_t early = seen;
    std::optional<StreamResult> result;
    {
      Scope span(tracer, finish_span);
      result.emplace(core.finish());
    }
    collect(now_ns());
    timed.stop(out);

    check(core, *result, ids_ok, out);
    if (tracer == nullptr) {
      latencies_ms_.insert(latencies_ms_.end(), pass_latencies.begin(),
                           pass_latencies.end());
      early_ += early;
      committed_total_ += core.committed().size();
    }
    const StreamCounters& c = core.counters();
    last_executed_ = 0;
    for (RunStatus s : result->status) {
      last_executed_ += s == RunStatus::kExecuted ? 1 : 0;
    }
    Policy policy;
    last_cost_ = policy.cost(result->outcome);
    out.counters = {
        {"stream.fast_appends", static_cast<double>(c.fast_appends), "count"},
        {"stream.full_resolves", static_cast<double>(c.full_resolves),
         "count"},
        {"stream.epochs", static_cast<double>(c.epochs), "count"},
        {"stream.pairs_evaluated",
         static_cast<double>(core.stats().constraint_pairs_evaluated),
         "count"},
        {"stream.max_commit_lag", static_cast<double>(c.max_commit_lag),
         "count"},
        {"stream.commit_violations", static_cast<double>(c.commit_violations),
         "count"},
        {"stream.committed_early", static_cast<double>(early), "count"},
        {"schedule_cost", last_cost_, "cost"},
    };
    if (tracer != nullptr) {
      const std::size_t quarter = n / 4;
      double q1 = 0.0, q4 = 0.0;
      for (std::size_t i = 0; i < quarter; ++i) {
        q1 += ingest_ns[i];
        q4 += ingest_ns[n - 1 - i];
      }
      out.layer = {
          {"stream.ingest_ns_q1", ratio(q1, static_cast<double>(quarter)),
           "ns"},
          {"stream.ingest_ns_q4", ratio(q4, static_cast<double>(quarter)),
           "ns"},
          {"stream.epoch_p50_ms", median(epoch_ms), "ms", epoch_ms.size()},
          {"stream.fast_append_ratio",
           ratio(static_cast<double>(c.fast_appends),
                 static_cast<double>(c.ingested)),
           "ratio"},
      };
    }
    return out;
  }

  [[nodiscard]] double actions() const override {
    return static_cast<double>(arrivals_.size());
  }
  [[nodiscard]] std::uint64_t input_digest() const override {
    std::uint64_t hash =
        fnv1a(std::to_string(gen_.initial.fingerprint_hash()));
    for (const Arrival& a : arrivals_) {
      hash = fnv1a(std::to_string(a.log.value()) + " " +
                       a.action->describe() + "\n",
                   hash);
    }
    return hash;
  }
  [[nodiscard]] double executed_ratio() const override {
    return ratio(static_cast<double>(last_executed_), actions());
  }
  [[nodiscard]] std::vector<Metric> extra_metrics(double) const override {
    std::vector<double> samples = latencies_ms_;
    std::vector<Metric> out;
    for (const auto& [name, q] : {std::pair{"commit_p50_ms", 0.50},
                                  std::pair{"commit_p99_ms", 0.99}}) {
      if (quantile_supported(q, samples.size())) {
        out.push_back({name, quantile(samples, q), "ms", samples.size()});
      }
    }
    out.push_back({"committed_early_ratio",
                   ratio(static_cast<double>(early_),
                         static_cast<double>(committed_total_)),
                   "ratio", committed_total_});
    out.push_back({"schedule_cost", last_cost_, "cost"});
    return out;
  }

 private:
  static constexpr int kReplicas = 3;

  /// The finish() result equals the batch reference, every action is
  /// committed exactly once, and no committed status differs from the
  /// action's final status.
  void check(const StreamReconciler& core, const StreamResult& result,
             bool ids_ok, PassResult& out) const {
    const std::vector<ActionRecord>& records = core.graph().records();
    Canonical got;
    std::vector<std::uint8_t> final_status(records.size(), 0xFF);
    bool indices_ok = ids_ok && result.sequence.size() == records.size() &&
                      result.status.size() == result.sequence.size();
    for (std::size_t i = 0; indices_ok && i < result.sequence.size(); ++i) {
      const std::size_t id = result.sequence[i].index();
      if (id >= records.size()) {
        indices_ok = false;
        break;
      }
      final_status[id] = static_cast<std::uint8_t>(result.status[i]);
      const std::uint64_t key = stream_priority(records[id]);
      (result.status[i] == RunStatus::kExecuted ? got.executed
                                                : got.not_executed)
          .push_back(key);
    }
    std::sort(got.not_executed.begin(), got.not_executed.end());
    got.state_digest = universe_state_digest(result.outcome.final_state);
    out.checks += 2;
    out.failed += (indices_ok && got == reference_) ? 0 : 1;

    const std::vector<CommitEntry>& committed = core.committed();
    std::vector<std::uint8_t> commits(records.size(), 0);
    bool once = committed.size() == records.size();
    for (const CommitEntry& e : committed) {
      ++out.checks;
      const std::size_t id = e.id.index();
      if (!indices_ok || id >= records.size() || commits[id]++ != 0 ||
          final_status[id] != static_cast<std::uint8_t>(e.status)) {
        ++out.failed;
        once = false;
      }
    }
    out.failed += once ? 0 : 1;
  }

  bool interleaved_;
  workload::Generated gen_;
  std::vector<Arrival> arrivals_;
  Canonical reference_;
  std::vector<double> latencies_ms_;  ///< untraced passes, pooled
  std::uint64_t early_ = 0;
  std::uint64_t committed_total_ = 0;
  std::size_t last_executed_ = 0;
  double last_cost_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_stream(bool interleaved) {
  return std::make_unique<StreamWorkload>(interleaved);
}

}  // namespace perfbench
