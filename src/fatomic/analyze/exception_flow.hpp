// Pass 2 of the static analyzer: interprocedural exception-flow propagation.
//
// The paper's Analyzer computes, for every method, the exceptions it may
// raise — the declared set E_1..E_k plus generic runtime exceptions
// E_{k+1}..E_n.  This pass lifts that to a may-propagate set over the whole
// program: a fixpoint over the dynamic call graph where each method
// propagates its own declared exceptions, the generic runtime exceptions,
// and everything its callees may propagate (an exception escaping a callee
// passes through the caller's frame).
//
// The lint then cross-checks the dynamic campaign against the static sets:
// every exception type observed passing through a method's wrapper (the
// Mark::exception_type recorded by the injector) must be in that method's
// may-propagate set.  A violation means the method's FAT_THROWS declaration
// is incomplete — the exact mis-declaration the paper's exception-free
// annotations (Section 4.3) must be able to trust.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "fatomic/detect/callgraph.hpp"
#include "fatomic/detect/campaign.hpp"

namespace fatomic::analyze {

/// One observed exception the static sets cannot explain.
struct LintFinding {
  std::string method;          ///< qualified name of the wrapper frame
  std::string exception_type;  ///< demangled observed type
  std::string injected_at;     ///< injection site of the offending run
  std::uint64_t injection_point = 0;
};

struct ExceptionFlow {
  /// Qualified method name -> every exception type that may propagate
  /// through its frame (declared + runtime + transitively from callees).
  std::map<std::string, std::set<std::string>> may_propagate;

  const std::set<std::string>* find(const std::string& method) const {
    auto it = may_propagate.find(method);
    return it == may_propagate.end() ? nullptr : &it->second;
  }
};

/// Computes the may-propagate fixpoint from the registry's declared specs
/// and the campaign's dynamic call graph.  Methods never observed in the
/// campaign still get their local (declared + runtime) sets.
ExceptionFlow propagate_exceptions(const detect::Campaign& campaign);

/// Checks every mark of the campaign against the static sets.  Marks with
/// an empty exception_type (a foreign exception) are skipped.  An empty
/// result means every dynamically observed exception was statically
/// predicted.
std::vector<LintFinding> lint(const detect::Campaign& campaign);

}  // namespace fatomic::analyze
