#include "fatomic/detect/callgraph.hpp"

#include <algorithm>
#include <sstream>

namespace fatomic::detect {

CallGraph CallGraph::from(const Campaign& campaign) {
  CallGraph g;
  for (const weave::BaselineCall& call : campaign.calls) {
    const std::string from =
        call.parent == weave::BaselineCall::kTopLevel
            ? kRoot
            : campaign.calls[call.parent].method->qualified_name();
    ++g.edges_[from][call.method->qualified_name()];
  }
  return g;
}

std::vector<std::string> CallGraph::callees_of(
    const std::string& caller) const {
  std::vector<std::string> out;
  if (auto it = edges_.find(caller); it != edges_.end())
    for (const auto& [callee, count] : it->second) out.push_back(callee);
  return out;
}

std::vector<std::string> CallGraph::callers_of(
    const std::string& callee) const {
  std::vector<std::string> out;
  for (const auto& [caller, callees] : edges_)
    if (callees.count(callee)) out.push_back(caller);
  return out;
}

std::size_t CallGraph::edge_count() const {
  std::size_t n = 0;
  for (const auto& [caller, callees] : edges_) n += callees.size();
  return n;
}

std::string dot_quote(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 2);
  out.push_back('"');
  for (const char c : name) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string CallGraph::to_dot(const Classification* cls) const {
  std::ostringstream os;
  os << "digraph calls {\n  rankdir=LR;\n  node [shape=box];\n";
  if (cls != nullptr) {
    for (const auto& m : cls->methods) {
      if (m.cls == MethodClass::PureNonAtomic)
        os << "  " << dot_quote(m.method->qualified_name())
           << " [color=red, style=filled, fillcolor=mistyrose];\n";
      else if (m.cls == MethodClass::ConditionalNonAtomic)
        os << "  " << dot_quote(m.method->qualified_name())
           << " [color=orange, style=filled, fillcolor=papayawhip];\n";
    }
  }
  for (const auto& [caller, callees] : edges_)
    for (const auto& [callee, count] : callees)
      os << "  " << dot_quote(caller) << " -> " << dot_quote(callee)
         << " [label=" << count << "];\n";
  os << "}\n";
  return os.str();
}

Blame blame_analysis(const Campaign& campaign) {
  Blame blame;
  for (const RunRecord& run : campaign.runs) {
    if (run.injected_method == nullptr) continue;
    const std::string site = run.injected_method->qualified_name();
    for (const weave::Mark& mark : run.marks) {
      if (mark.atomic) continue;
      blame.sites_of[mark.method->qualified_name()].insert(site);
    }
  }
  return blame;
}

std::map<std::string, std::string> Blame::single_site_victims() const {
  std::map<std::string, std::string> out;
  for (const auto& [victim, sites] : sites_of)
    if (sites.size() == 1) out.emplace(victim, *sites.begin());
  return out;
}

std::vector<std::string> suggest_exception_free(const Campaign& campaign) {
  const Blame blame = blame_analysis(campaign);
  std::map<std::string, std::size_t> victims_per_site;
  for (const auto& [victim, site] : blame.single_site_victims())
    ++victims_per_site[site];
  std::vector<std::pair<std::string, std::size_t>> ranked(
      victims_per_site.begin(), victims_per_site.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::vector<std::string> out;
  out.reserve(ranked.size());
  for (const auto& [site, victims] : ranked) out.push_back(site);
  return out;
}

}  // namespace fatomic::detect
