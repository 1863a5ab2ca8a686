// Per-log-order-preserving interleavings of generated logs, shared by the
// streaming and component-extraction tests.
#pragma once

#include <cstdint>
#include <vector>

#include "core/action.hpp"
#include "core/log.hpp"
#include "stream/stream_spec_codec.hpp"
#include "workload/generators.hpp"

namespace icecube::testing {

struct Arrival {
  LogId log;
  ActionPtr action;
};

/// Interleaves the generated logs into one ingest stream, in the library's
/// `arrival_order`. Per-log order is always preserved; the cross-log order
/// is the adversarial knob.
inline std::vector<Arrival> make_arrivals(const workload::Generated& gen,
                                          StreamArrival mode,
                                          std::uint64_t seed = 42) {
  std::vector<Arrival> out;
  for (const auto& [l, p] : arrival_order(gen.logs, mode, seed)) {
    out.push_back({LogId(l), gen.logs[l].ptr(p)});
  }
  return out;
}

}  // namespace icecube::testing
