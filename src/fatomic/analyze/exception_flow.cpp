#include "fatomic/analyze/exception_flow.hpp"

#include <algorithm>

#include "fatomic/weave/method_info.hpp"
#include "fatomic/weave/runtime.hpp"

namespace fatomic::analyze {

ExceptionFlow propagate_exceptions(const detect::Campaign& campaign) {
  ExceptionFlow flow;

  // Local seeds: declared exceptions plus the generic runtime set the
  // injector appends to every method (the paper's E_{k+1}..E_n).
  const std::set<std::string> runtime_names = weave::runtime_exception_names();
  for (const weave::MethodInfo* mi : weave::MethodRegistry::instance().all()) {
    std::set<std::string>& s = flow.may_propagate[mi->qualified_name()];
    for (const auto& spec : mi->declared()) s.insert(spec.type_name);
    s.insert(runtime_names.begin(), runtime_names.end());
  }

  // Transitive closure over the dynamic call graph: an exception escaping a
  // callee unwinds through its caller's wrapper.  Iterate to fixpoint; the
  // sets only grow and are bounded by the union of all seeds.
  const detect::CallGraph graph = detect::CallGraph::from(campaign);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [caller, callees] : graph.edges()) {
      if (caller == detect::CallGraph::kRoot) continue;
      std::set<std::string>& s = flow.may_propagate[caller];
      const std::size_t before = s.size();
      for (const auto& [callee, count] : callees) {
        auto it = flow.may_propagate.find(callee);
        if (it != flow.may_propagate.end())
          s.insert(it->second.begin(), it->second.end());
      }
      if (s.size() != before) changed = true;
    }
  }
  return flow;
}

std::vector<LintFinding> lint(const detect::Campaign& campaign) {
  const ExceptionFlow flow = propagate_exceptions(campaign);
  std::vector<LintFinding> findings;
  std::set<std::pair<std::string, std::string>> seen;
  for (const detect::RunRecord& run : campaign.runs) {
    for (const weave::Mark& mark : run.marks) {
      if (mark.exception_type.empty()) continue;  // a foreign exception
      const std::string& method = mark.method->qualified_name();
      const std::set<std::string>* allowed = flow.find(method);
      if (allowed != nullptr && allowed->count(mark.exception_type)) continue;
      if (!seen.emplace(method, mark.exception_type).second) continue;
      LintFinding f;
      f.method = method;
      f.exception_type = mark.exception_type;
      f.injected_at = run.injected_method != nullptr
                          ? run.injected_method->qualified_name()
                          : "(none)";
      f.injection_point = run.injection_point;
      findings.push_back(std::move(f));
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const LintFinding& a, const LintFinding& b) {
              return a.method != b.method ? a.method < b.method
                                          : a.exception_type < b.exception_type;
            });
  return findings;
}

}  // namespace fatomic::analyze
