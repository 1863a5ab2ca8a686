// The from-scratch S of §3.3: every action outside `done` whose closed
// D-predecessors (other than itself) are all in `done`. O(n²/64) per call;
// the search keeps the same set incrementally (Simulator), and the tests
// compare the two.
#pragma once

#include <cstddef>

#include "core/relations.hpp"
#include "util/bitset.hpp"

namespace icecube::testing {

inline Bitset oracle_eligible(const Relations& relations, const Bitset& done) {
  const std::size_t n = relations.size();
  Bitset s(n);
  for (std::size_t b = 0; b < n; ++b) {
    if (done.test(b)) continue;
    Bitset pending = relations.predecessors(ActionId(b));
    pending -= done;
    pending.reset(b);  // ignore formal reflexivity
    if (pending.none()) s.set(b);
  }
  return s;
}

}  // namespace icecube::testing
