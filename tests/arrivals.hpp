// Per-log-order-preserving interleavings of generated logs, shared by the
// streaming and component-extraction tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/action.hpp"
#include "core/log.hpp"
#include "stream/stream_spec_codec.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace icecube::testing {

struct Arrival {
  LogId log;
  ActionPtr action;
};

/// Interleaves the generated logs into one ingest stream. Per-log order is
/// always preserved; the cross-log order is the adversarial knob.
inline std::vector<Arrival> make_arrivals(const workload::Generated& gen,
                                          StreamArrival mode,
                                          std::uint64_t seed = 42) {
  std::vector<Arrival> out;
  std::vector<std::size_t> next(gen.logs.size(), 0);
  std::size_t total = 0;
  for (const Log& log : gen.logs) total += log.size();
  out.reserve(total);
  switch (mode) {
    case StreamArrival::kFlatten:
      for (std::size_t l = 0; l < gen.logs.size(); ++l) {
        for (std::size_t p = 0; p < gen.logs[l].size(); ++p) {
          out.push_back({LogId(static_cast<std::uint32_t>(l)),
                         gen.logs[l].ptr(p)});
        }
      }
      break;
    case StreamArrival::kRoundRobin:
      for (std::size_t taken = 0; taken < total;) {
        for (std::size_t l = 0; l < gen.logs.size(); ++l) {
          if (next[l] >= gen.logs[l].size()) continue;
          out.push_back({LogId(static_cast<std::uint32_t>(l)),
                         gen.logs[l].ptr(next[l]++)});
          ++taken;
        }
      }
      break;
    case StreamArrival::kShuffled: {
      Rng rng(seed);
      for (std::size_t taken = 0; taken < total; ++taken) {
        std::uint64_t pick = rng.below(total - taken);
        for (std::size_t l = 0; l < gen.logs.size(); ++l) {
          const std::size_t remaining = gen.logs[l].size() - next[l];
          if (pick < remaining) {
            out.push_back({LogId(static_cast<std::uint32_t>(l)),
                           gen.logs[l].ptr(next[l]++)});
            break;
          }
          pick -= remaining;
        }
      }
      break;
    }
  }
  return out;
}

}  // namespace icecube::testing
