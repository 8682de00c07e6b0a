#include "fatomic/analyze/static_report.hpp"

#include <map>
#include <sstream>

#include "fatomic/weave/method_info.hpp"

namespace fatomic::analyze {

std::set<std::string> StaticReport::prune_set() const {
  std::set<std::string> out;
  for (const auto& [name, es] : effects.methods)
    if (es.proven_atomic() && !es.catches && !es.is_static) out.insert(name);
  return out;
}

std::size_t StaticReport::proven_count() const {
  std::size_t n = 0;
  for (const auto& [name, es] : effects.methods)
    if (es.proven_atomic()) ++n;
  return n;
}

std::string StaticReport::to_text() const {
  std::ostringstream os;
  os << "static analysis: " << effects.methods.size() << " methods, "
     << proven_count() << " proven atomic, " << prune_set().size()
     << " prunable (" << model.files.size() << " files scanned)\n";
  std::string cls;
  for (const auto& [name, es] : effects.methods) {
    if (es.class_name != cls) {
      cls = es.class_name;
      os << cls << ":\n";
    }
    os << "  " << es.method_name << ": " << es.verdict();
    if (es.scanned)
      os << " (" << es.mutation_events << " mut, " << es.throw_events
         << " throw)";
    if (es.catches) os << " [catches]";
    if (es.is_static) os << " [static]";
    os << "\n";
  }
  return os.str();
}

StaticReport analyze_sources(const std::string& root) {
  StaticReport report;
  report.model = scan_sources(root);
  report.effects = analyze_effects(report.model);
  report.write_sets = analyze_write_sets(report.model, report.effects);
  report.graph =
      build_static_call_graph(report.model, weave::runtime_exception_names());
  return report;
}

namespace {

/// Classification as comparable name sets, one per MethodClass.
std::map<detect::MethodClass, std::set<std::string>> name_sets(
    const detect::Classification& cls) {
  std::map<detect::MethodClass, std::set<std::string>> out;
  for (const auto& m : cls.methods)
    out[m.cls].insert(m.method->qualified_name());
  return out;
}

}  // namespace

CrossCheck cross_check(std::function<void()> program,
                       const std::set<std::string>& prune_atomic,
                       unsigned jobs) {
  CrossCheck out;
  fatomic::Config config;
  config.jobs(jobs);
  out.full = detect::Experiment(program, config).run();
  config.prune_atomic(prune_atomic);
  out.pruned = detect::Experiment(program, config).run();
  out.runs_saved = out.pruned.pruned_runs;

  const auto full_sets = name_sets(detect::classify(out.full));
  const auto pruned_sets = name_sets(detect::classify(out.pruned));
  out.identical = true;
  for (const auto cls :
       {detect::MethodClass::Atomic, detect::MethodClass::ConditionalNonAtomic,
        detect::MethodClass::PureNonAtomic}) {
    const auto f = full_sets.find(cls);
    const auto p = pruned_sets.find(cls);
    const std::set<std::string> empty;
    const std::set<std::string>& fs = f == full_sets.end() ? empty : f->second;
    const std::set<std::string>& ps =
        p == pruned_sets.end() ? empty : p->second;
    if (fs == ps) continue;
    out.identical = false;
    for (const std::string& n : fs)
      if (!ps.count(n)) {
        out.mismatch = std::string(detect::to_string(cls)) + ": " + n +
                       " only in full campaign";
        return out;
      }
    for (const std::string& n : ps)
      if (!fs.count(n)) {
        out.mismatch = std::string(detect::to_string(cls)) + ": " + n +
                       " only in pruned campaign";
        return out;
      }
  }
  return out;
}

}  // namespace fatomic::analyze
