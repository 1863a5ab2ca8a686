#include "core/relations.hpp"

#include "solver/graph.hpp"

namespace icecube {

Relations::Relations(std::size_t n)
    : n_(n),
      raw_succ_(n, Bitset(n)),
      closed_succ_(n, Bitset(n)),
      closed_pred_(n, Bitset(n)),
      indep_(n, Bitset(n)),
      indep_pred_(n, Bitset(n)) {}

Relations Relations::from_graph(const SolverGraph& graph) {
  const std::size_t n = graph.n;
  Relations rel(n);
  // Every direction between distinct actions is safe — hence independent —
  // unless the graph stored it as unsafe or maybe.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a != b) rel.indep_[a].set(b);
    }
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (ActionId b : graph.succs[a]) {
      if (b.index() == a) continue;  // a self-pair relates nothing
      // constraint(b, a) = unsafe ⇒ a must precede b.
      rel.add_dependence(ActionId(a), b);
      rel.indep_[b.index()].reset(a);
    }
  }
  for (const auto& [a, b] : graph.maybe) rel.indep_[a.index()].reset(b.index());
  for (std::size_t a = 0; a < n; ++a) {
    rel.indep_[a].for_each(
        [&rel, a](std::size_t b) { rel.indep_pred_[b].set(a); });
  }
  rel.close();
  return rel;
}

void Relations::add_dependence(ActionId a, ActionId b) {
  raw_succ_[a.index()].set(b.index());
}

void Relations::add_independence(ActionId a, ActionId b) {
  indep_[a.index()].set(b.index());
  indep_pred_[b.index()].set(a.index());
}

void Relations::close() {
  // Warshall over bit rows: O(n^2 * n/64). n is at most a few hundred here.
  for (std::size_t i = 0; i < n_; ++i) closed_succ_[i] = raw_succ_[i];
  for (std::size_t k = 0; k < n_; ++k) {
    for (std::size_t i = 0; i < n_; ++i) {
      if (closed_succ_[i].test(k)) closed_succ_[i] |= closed_succ_[k];
    }
  }
  for (std::size_t i = 0; i < n_; ++i) closed_pred_[i].clear();
  for (std::size_t i = 0; i < n_; ++i) {
    closed_succ_[i].for_each(
        [this, i](std::size_t j) { closed_pred_[j].set(i); });
  }
}

Relations Relations::restricted(const Bitset& removed) const {
  Relations out(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    out.indep_[i] = indep_[i];
    out.indep_pred_[i] = indep_pred_[i];
    if (removed.test(i)) continue;  // leave raw_succ_ row empty
    out.raw_succ_[i] = raw_succ_[i];
    out.raw_succ_[i] -= removed;
  }
  out.close();
  return out;
}

std::size_t Relations::dependence_edge_count() const {
  std::size_t total = 0;
  for (const auto& row : raw_succ_) total += row.count();
  return total;
}

std::size_t Relations::independence_pair_count() const {
  std::size_t total = 0;
  for (const auto& row : indep_) total += row.count();
  return total;
}

}  // namespace icecube
