#include "core/graphviz.hpp"

#include <sstream>

namespace icecube {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string node_label(const ActionRecord& record) {
  std::ostringstream os;
  os << "L" << record.log.value() << ':' << record.position << "\\n"
     << escape(record.action->describe());
  return os.str();
}

void emit_nodes(std::ostringstream& os,
                const std::vector<ActionRecord>& records,
                const Cutset& cutset) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    bool cut = false;
    for (ActionId a : cutset.actions) cut = cut || a.index() == i;
    os << "  a" << i << " [label=\"" << node_label(records[i]) << '"';
    if (cut) os << ", style=filled, fillcolor=lightgray";
    os << "];\n";
  }
}

}  // namespace

std::string to_dot(const std::vector<ActionRecord>& records,
                   const Relations& relations, const Cutset& cutset) {
  std::ostringstream os;
  os << "digraph icecube_relations {\n"
     << "  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  emit_nodes(os, records, cutset);
  for (std::size_t a = 0; a < records.size(); ++a) {
    relations.raw_successors(ActionId(a)).for_each([&os, a](std::size_t b) {
      if (a != b) os << "  a" << a << " -> a" << b << ";\n";
    });
  }
  for (std::size_t a = 0; a < records.size(); ++a) {
    relations.independents_of(ActionId(a)).for_each([&os, a](std::size_t b) {
      if (a != b) {
        os << "  a" << a << " -> a" << b
           << " [style=dashed, color=gray, constraint=false];\n";
      }
    });
  }
  os << "}\n";
  return os.str();
}

}  // namespace icecube
