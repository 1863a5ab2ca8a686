// Graphviz (DOT) export of the static-analysis artefacts.
//
// Reconciliation decisions are graph-shaped: which pairs conflict, what D
// chains force, where the cycles sit. These helpers render them for
// debugging, documentation and demos:
//
//   dot -Tsvg constraints.dot -o constraints.svg
#pragma once

#include <string>
#include <vector>

#include "core/cutset.hpp"
#include "core/log.hpp"
#include "core/relations.hpp"

namespace icecube {

/// Renders the D and I relations over `records`: one node per action
/// (labelled "log:pos op"), solid edges for raw dependences (a must precede
/// b), dashed edges for independences (a I b). Cut vertices, if any, are
/// drawn filled.
[[nodiscard]] std::string to_dot(const std::vector<ActionRecord>& records,
                                 const Relations& relations,
                                 const Cutset& cutset = {});

}  // namespace icecube
