#include "fatomic/detect/classify.hpp"

#include <algorithm>
#include <climits>
#include <map>
#include <set>

namespace fatomic::detect {

const char* to_string(MethodClass c) {
  switch (c) {
    case MethodClass::Atomic:
      return "atomic";
    case MethodClass::ConditionalNonAtomic:
      return "conditional non-atomic";
    case MethodClass::PureNonAtomic:
      return "pure non-atomic";
  }
  return "?";
}

const MethodResult* Classification::find(
    const std::string& qualified_name) const {
  for (const MethodResult& m : methods)
    if (m.method->qualified_name() == qualified_name) return &m;
  return nullptr;
}

std::size_t Classification::count_methods(MethodClass c) const {
  return static_cast<std::size_t>(
      std::count_if(methods.begin(), methods.end(),
                    [c](const MethodResult& m) { return m.cls == c; }));
}

std::size_t Classification::count_classes(MethodClass c) const {
  return static_cast<std::size_t>(
      std::count_if(classes.begin(), classes.end(),
                    [c](const ClassResult& r) { return r.cls == c; }));
}

std::uint64_t Classification::count_calls(MethodClass c) const {
  std::uint64_t n = 0;
  for (const MethodResult& m : methods)
    if (m.cls == c) n += m.calls;
  return n;
}

std::vector<std::string> Classification::pure_names() const {
  std::vector<std::string> names;
  for (const MethodResult& m : methods)
    if (m.cls == MethodClass::PureNonAtomic)
      names.push_back(m.method->qualified_name());
  return names;
}

std::vector<std::string> Classification::nonatomic_names() const {
  std::vector<std::string> names;
  for (const MethodResult& m : methods)
    if (m.cls != MethodClass::Atomic)
      names.push_back(m.method->qualified_name());
  return names;
}

Classification classify(const Campaign& campaign, const Policy& policy) {
  struct Tally {
    std::uint64_t calls = 0;  // in the original program
    std::uint64_t atomic = 0;
    std::uint64_t nonatomic = 0;
    bool marked_first = false;  // first non-atomic mark of some episode
    std::string example_detail;
  };
  std::map<const weave::MethodInfo*, Tally> tallies;

  // Universe: every method called by the original program.
  for (const weave::BaselineCall& call : campaign.calls)
    ++tallies[call.method].calls;

  for (const RunRecord& run : campaign.runs) {
    if (run.injected_method == nullptr) continue;
    if (policy.exception_free.count(run.injected_method->qualified_name()))
      continue;  // programmer ruled this injection out (Section 4.3)

    // Marks arrive callee-first within each exception-propagation episode
    // (depths strictly decrease during unwinding); a mark at a depth >= its
    // predecessor's starts a new episode.  The first non-atomic mark of an
    // episode identifies a *pure* failure non-atomic method (Definition 3).
    bool first_seen = false;
    int prev_depth = INT_MAX;
    for (const weave::Mark& mark : run.marks) {
      if (mark.depth >= prev_depth) first_seen = false;  // new episode
      prev_depth = mark.depth;
      Tally& t = tallies[mark.method];
      if (mark.atomic) {
        ++t.atomic;
      } else {
        ++t.nonatomic;
        if (t.example_detail.empty() && !mark.detail.empty())
          t.example_detail = mark.detail;
        if (!first_seen) {
          t.marked_first = true;
          first_seen = true;
        }
      }
    }
  }

  Classification out;
  for (const auto& [mi, t] : tallies) {
    MethodResult r;
    r.method = mi;
    r.calls = t.calls;
    r.atomic_marks = t.atomic;
    r.nonatomic_marks = t.nonatomic;
    r.example_detail = t.example_detail;
    if (t.nonatomic == 0)
      r.cls = MethodClass::Atomic;
    else if (t.marked_first)
      r.cls = MethodClass::PureNonAtomic;
    else
      r.cls = MethodClass::ConditionalNonAtomic;
    out.methods.push_back(r);
  }
  std::sort(out.methods.begin(), out.methods.end(),
            [](const MethodResult& a, const MethodResult& b) {
              return a.method->qualified_name() < b.method->qualified_name();
            });

  // Class roll-up (Figure 4): a class is pure non-atomic if it contains at
  // least one pure non-atomic method, conditional if it contains a
  // non-atomic method but no pure one, atomic otherwise.
  std::map<std::string, ClassResult> by_class;
  for (const MethodResult& m : out.methods) {
    ClassResult& c = by_class[m.method->class_name()];
    c.class_name = m.method->class_name();
    ++c.methods;
    c.cls = std::max(c.cls, m.cls);
  }
  for (auto& [name, c] : by_class) out.classes.push_back(c);
  return out;
}

}  // namespace fatomic::detect
