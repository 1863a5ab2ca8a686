// StreamSpec <-> wire text, and the pure replay function built on it.
//
// A streaming capture's first frame is a serialized StreamSpec: the Fages
// workload parameters, the daemon configuration and the arrival
// interleaving. `run_stream` is a pure function of that spec (the epoch
// budget is forced to zero — wall-clock degradation cannot be replayed),
// so the capture replay engine re-drives the identical daemon run and
// compares frame by frame, exactly as it does for chaos captures. The
// encoding is the shared spec text (serialize/spec_text.hpp) under a
// "stream-spec 1" header — the header keyword is also how
// `replay_capture` tells the capture kinds apart.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "capture/capture_sink.hpp"
#include "core/log.hpp"
#include "core/options.hpp"
#include "serialize/decode_error.hpp"
#include "stream/daemon.hpp"
#include "workload/generators.hpp"

namespace icecube {

/// How the generated logs are interleaved into the daemon's ingest stream.
/// Per-log order is always preserved (a replica ships its log in order);
/// the interleaving across logs is the adversarial knob.
enum class StreamArrival : std::uint8_t {
  kFlatten,     ///< log 0 entirely, then log 1, ... (replica-at-a-time)
  kRoundRobin,  ///< position 0 of every log, then position 1, ...
  kShuffled     ///< seeded random interleaving (per-log order kept)
};

[[nodiscard]] constexpr std::string_view to_string(StreamArrival a) {
  switch (a) {
    case StreamArrival::kFlatten:
      return "flatten";
    case StreamArrival::kRoundRobin:
      return "roundrobin";
    case StreamArrival::kShuffled:
      return "shuffled";
  }
  return "?";
}

/// The ingest order of `logs` under `arrival`, as (log, position) pairs;
/// each log's positions come in order. kRoundRobin is position-major:
/// position 0 of every log that has one, then position 1, and so on.
/// kShuffled draws from `seed`; the other modes ignore it. run_stream, the
/// timed run of tools/stream, bench_stream and the tests all interleave
/// through this one function.
[[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>>
arrival_order(const std::vector<Log>& logs, StreamArrival arrival,
              std::uint64_t seed);

/// Everything a deterministic streaming run depends on.
struct StreamSpec {
  workload::FagesSpec workload;
  SolverKind backend = SolverKind::kGreedy;
  StreamArrival arrival = StreamArrival::kFlatten;
  std::uint64_t arrival_seed = 1;
  /// Arrivals per epoch; 0 = ingest everything, solve only in finish().
  std::uint32_t batch = 64;
  std::uint64_t commit_quiescence = 1;
};

struct StreamSpecDecode {
  StreamSpec spec;
  DecodeError error;
  [[nodiscard]] bool ok() const { return error.ok(); }
};

[[nodiscard]] std::string encode_stream_spec(const StreamSpec& spec);
[[nodiscard]] StreamSpecDecode decode_stream_spec(const std::string& text);

/// What one deterministic streaming run reports.
struct StreamRunReport {
  StreamResult result;
  StreamCounters counters;
  SearchStats stats;
  std::uint32_t trace_crc = 0;  ///< 0 unless a sink was attached
};

/// Drives a StreamReconciler over the spec's generated workload in the
/// spec's arrival order — pure: identical spec (and sink-or-not) gives an
/// identical frame stream and result.
[[nodiscard]] StreamRunReport run_stream(const StreamSpec& spec,
                                         CaptureSink* sink = nullptr);

/// Records the serialized spec frame first, then runs with `sink` attached
/// — the canonical way to produce a self-describing streaming capture.
[[nodiscard]] StreamRunReport run_stream_captured(const StreamSpec& spec,
                                                  CaptureSink& sink);

}  // namespace icecube
