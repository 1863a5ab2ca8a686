// Tests for the DOT export of constraints and relations.
#include <gtest/gtest.h>

#include <memory>

#include "core/graphviz.hpp"
#include "core/reconciler.hpp"
#include "objects/counter.hpp"
#include "objects/sysadmin.hpp"
#include "test_helpers.hpp"

namespace icecube {
namespace {

using testing::make_log;

TEST(Graphviz, RelationsExportContainsNodesAndEdges) {
  SysAdminExample ex = make_sysadmin_example();
  Reconciler r(ex.initial, ex.logs);
  const std::string dot = to_dot(r.records(), r.relations());

  EXPECT_NE(dot.find("digraph icecube_relations"), std::string::npos);
  // One node per action with its log provenance.
  EXPECT_NE(dot.find("L0:0"), std::string::npos);
  EXPECT_NE(dot.find("L1:1"), std::string::npos);
  EXPECT_NE(dot.find("upgrade(4,5)"), std::string::npos);
  // The discovered D edge B2 -> A1 (flattened ids 4 -> 0).
  EXPECT_NE(dot.find("a4 -> a0;"), std::string::npos);
  // Independences are dashed.
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  EXPECT_EQ(dot.find("fillcolor"), std::string::npos);  // no cutset marked
}

TEST(Graphviz, CutsetMembersAreFilled) {
  SysAdminExample ex = make_sysadmin_example();
  Reconciler r(ex.initial, ex.logs);
  Cutset cutset;
  cutset.actions = {ActionId(2)};
  const std::string dot = to_dot(r.records(), r.relations(), cutset);
  EXPECT_NE(dot.find("a2 [label=\"L0:2"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=lightgray"), std::string::npos);
}

TEST(Graphviz, RelationsExportShowsSafeAsIndependenceAndOmitsMaybe) {
  Universe u;
  const ObjectId c = u.add(std::make_unique<Counter>(0));
  std::vector<Log> logs;
  logs.push_back(make_log("a", {std::make_shared<IncrementAction>(c, 1)}));
  logs.push_back(make_log("b", {std::make_shared<DecrementAction>(c, 1)}));
  Reconciler r(u, logs);
  const std::string dot = to_dot(r.records(), r.relations());
  // inc before dec is safe (an I edge); dec before inc is maybe (omitted).
  EXPECT_NE(dot.find("a0 -> a1 [style=dashed"), std::string::npos);
  EXPECT_EQ(dot.find("a1 -> a0"), std::string::npos);
}

TEST(Graphviz, QuotesAreEscaped) {
  Universe u;
  const ObjectId c = u.add(std::make_unique<Counter>(0));
  std::vector<Log> logs;
  logs.push_back(make_log("a", {std::make_shared<IncrementAction>(c, 1)}));
  Reconciler r(u, logs);
  const std::string dot = to_dot(r.records(), r.relations());
  // Every label is well-formed: no stray unescaped quote sequences.
  EXPECT_EQ(dot.find("\"\""), std::string::npos);
}

}  // namespace
}  // namespace icecube
