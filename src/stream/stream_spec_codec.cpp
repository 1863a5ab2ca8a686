#include "stream/stream_spec_codec.hpp"

#include <string_view>
#include <utility>
#include <vector>

#include "serialize/spec_text.hpp"
#include "util/rng.hpp"

namespace icecube {

namespace {

constexpr std::string_view kSpecMagic = "stream-spec";

/// Every serialized field of a StreamSpec, in wire order.
template <typename V, typename Spec>
void visit(V& v, Spec& spec) {
  auto& w = spec.workload;
  v.field("replicas", w.replicas);
  v.field("tasks", w.tasks_per_replica);
  v.field("density", w.dependency_density);
  v.field("conflict", w.conflict_ratio);
  v.field("resources", w.shared_resources);
  v.field("capacity", w.resource_capacity);
  v.field("seed", w.seed);
  // The daemon folds every backend but kLocalSearch to greedy.
  v.field("backend", spec_text::named(spec.backend, SolverKind::kGreedy,
                                      SolverKind::kLocalSearch));
  v.field("arrival", spec_text::named(spec.arrival, StreamArrival::kFlatten,
                                      StreamArrival::kShuffled));
  v.field("arrival-seed", spec.arrival_seed);
  v.field("batch", spec.batch);
  v.field("quiescence", spec.commit_quiescence);
}

}  // namespace

std::string encode_stream_spec(const StreamSpec& spec) {
  return spec_text::encode(kSpecMagic, [&](auto& v) { visit(v, spec); });
}

StreamSpecDecode decode_stream_spec(const std::string& text) {
  StreamSpecDecode out;
  out.error = spec_text::decode(kSpecMagic, text,
                                [&](auto& v) { visit(v, out.spec); });
  return out;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> arrival_order(
    const std::vector<Log>& logs, StreamArrival arrival, std::uint64_t seed) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;
  std::size_t total = 0;
  for (const Log& log : logs) total += log.size();
  order.reserve(total);
  switch (arrival) {
    case StreamArrival::kFlatten:
      for (std::uint32_t l = 0; l < logs.size(); ++l) {
        for (std::uint32_t p = 0; p < logs[l].size(); ++p) {
          order.emplace_back(l, p);
        }
      }
      break;
    case StreamArrival::kRoundRobin: {
      bool more = true;
      for (std::uint32_t p = 0; more; ++p) {
        more = false;
        for (std::uint32_t l = 0; l < logs.size(); ++l) {
          if (p < logs[l].size()) {
            order.emplace_back(l, p);
            more = true;
          }
        }
      }
      break;
    }
    case StreamArrival::kShuffled: {
      Rng rng(seed);
      std::vector<std::uint32_t> next(logs.size(), 0);
      std::size_t remaining = total;
      while (remaining > 0) {
        std::uint64_t r = rng.below(remaining);
        for (std::uint32_t l = 0; l < logs.size(); ++l) {
          const std::uint64_t left = logs[l].size() - next[l];
          if (r < left) {
            order.emplace_back(l, next[l]++);
            break;
          }
          r -= left;
        }
        --remaining;
      }
      break;
    }
  }
  return order;
}

StreamRunReport run_stream(const StreamSpec& spec, CaptureSink* sink) {
  workload::Generated gen = workload::fages_workload(spec.workload);

  StreamOptions options;
  options.backend = spec.backend;
  options.commit_quiescence = spec.commit_quiescence;
  options.epoch_budget_us = 0;  // wall-clock degradation is not replayable

  StreamReconciler core(std::move(gen.initial), options, sink);
  const auto order = arrival_order(gen.logs, spec.arrival, spec.arrival_seed);
  std::uint32_t since_epoch = 0;
  for (const auto& [l, p] : order) {
    core.ingest(LogId(l), gen.logs[l].ptr(p));
    if (spec.batch > 0 && ++since_epoch >= spec.batch) {
      core.run_epoch();
      since_epoch = 0;
    }
  }
  if (since_epoch > 0) core.run_epoch();

  StreamRunReport report;
  report.result = core.finish();
  report.counters = core.counters();
  report.stats = core.stats();
  report.trace_crc = sink != nullptr ? core.trace_crc() : 0;
  return report;
}

StreamRunReport run_stream_captured(const StreamSpec& spec,
                                    CaptureSink& sink) {
  sink.record({CaptureRecordKind::kSpec, 0, encode_stream_spec(spec)});
  return run_stream(spec, &sink);
}

}  // namespace icecube
