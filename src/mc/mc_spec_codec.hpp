// McConfig + choice schedule <-> wire text, so an `.icap` counterexample
// is self-describing.
//
// The first frame of an mc capture is this spec; the replay engine
// (capture/replay_engine.cpp) recognises the "mc-spec" header keyword and
// re-drives the identical schedule through `run_mc_schedule`, which is a
// pure function of (config, schedule). The encoding is the shared spec
// text (serialize/spec_text.hpp) under an "mc-spec 1" header:
//
//   mc-spec 1
//   sites 3
//   mutant 1
//   choice step 0 1 0
//   choice deliver 0 1 0
//   ...
//
// Choice lines appear in schedule order. encode(decode(encode(x))) is
// byte-identical — the replay comparator relies on that.
#pragma once

#include <string>
#include <vector>

#include "mc/choice.hpp"
#include "mc/world.hpp"
#include "serialize/decode_error.hpp"

namespace icecube::mc {

/// One decoded spec (or why decoding failed).
struct McSpecDecode {
  McConfig config;
  std::vector<Choice> schedule;
  DecodeError error;
  [[nodiscard]] bool ok() const { return error.ok(); }
};

[[nodiscard]] std::string encode_mc_spec(const McConfig& config,
                                         const std::vector<Choice>& schedule);
[[nodiscard]] McSpecDecode decode_mc_spec(const std::string& text);

}  // namespace icecube::mc
