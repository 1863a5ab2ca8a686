// ChaosSpec <-> wire text, so a capture file is self-describing.
//
// The first frame of every capture is the serialized spec of the run that
// produced it; the replay engine re-derives the identical event sequence
// from it (run_chaos is a pure function of its spec). The encoding is the
// shared spec text (serialize/spec_text.hpp) under a "chaos-spec 1"
// header:
//
//   chaos-spec 1
//   seed 7
//   lose 0.05
//   cut s0 s1 10 120
//   ...
//
// encode(decode(encode(s))) == encode(s) byte-for-byte — the replay
// comparator relies on that stability. Volatile fields that cannot change
// the event sequence (keep_trace, the capture sink, reconciler options —
// the chaos harness always runs with defaults) are deliberately not
// serialized.
#pragma once

#include <string>

#include "serialize/decode_error.hpp"
#include "simnet/chaos.hpp"

namespace icecube {

/// One decoded spec (or why decoding failed).
struct ChaosSpecDecode {
  ChaosSpec spec;
  DecodeError error;
  [[nodiscard]] bool ok() const { return error.ok(); }
};

[[nodiscard]] std::string encode_chaos_spec(const ChaosSpec& spec);
[[nodiscard]] ChaosSpecDecode decode_chaos_spec(const std::string& text);

}  // namespace icecube
