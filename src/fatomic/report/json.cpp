#include "fatomic/report/json.hpp"

#include <map>
#include <set>
#include <sstream>

#include "fatomic/trace/export.hpp"
#include "fatomic/unwind/provenance.hpp"
#include "fatomic/unwind/stack_table.hpp"

namespace fatomic::report {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void stat_block(std::ostream& os, const weave::RuntimeStats& stats,
                weave::StatBlock block) {
  const char* sep = "";
  for (const weave::StatField& f : weave::kStatFields) {
    if (f.block != block) continue;
    os << sep << '"' << f.json_key << "\":" << stats.*f.member;
    sep = ",";
  }
}

namespace {

const char* cls_tag(detect::MethodClass c) {
  switch (c) {
    case detect::MethodClass::Atomic:
      return "atomic";
    case detect::MethodClass::ConditionalNonAtomic:
      return "conditional";
    case detect::MethodClass::PureNonAtomic:
      return "pure";
  }
  return "?";
}

}  // namespace

std::string classification_json(const detect::Classification& cls) {
  std::ostringstream os;
  os << "{\"methods\":[";
  bool first = true;
  for (const auto& m : cls.methods) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(m.method->qualified_name())
       << "\",\"class\":\"" << json_escape(m.method->class_name())
       << "\",\"classification\":\"" << cls_tag(m.cls)
       << "\",\"calls\":" << m.calls << ",\"atomic_marks\":" << m.atomic_marks
       << ",\"nonatomic_marks\":" << m.nonatomic_marks << '}';
  }
  os << "],\"classes\":[";
  first = true;
  for (const auto& c : cls.classes) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(c.class_name)
       << "\",\"classification\":\"" << cls_tag(c.cls)
       << "\",\"methods\":" << c.methods << '}';
  }
  os << "]}";
  return os.str();
}

std::string provenance_json(const detect::Campaign& campaign) {
  // Aggregate marks by (method, throw-site stack): how often each site's
  // exception passed through each wrapper, with what types, and whether the
  // run ultimately contained (masked) or escaped it.
  struct SiteAgg {
    std::uint64_t count = 0;
    std::uint64_t masked = 0;
    std::uint64_t escaped = 0;
    /// Representative stack id (first observed) for the "stack" array;
    /// rows are keyed by rendered site name, so ids differing only in
    /// calling context collapse into one entry.
    std::uint64_t stack = 0;
    std::set<std::string> exceptions;
  };
  std::map<std::string, std::map<std::string, SiteAgg>> methods;
  std::map<std::string, std::uint64_t> escapes;
  std::set<std::uint64_t> sites;
  for (const detect::RunRecord& run : campaign.runs) {
    for (const weave::Mark& mark : run.marks) {
      if (mark.throw_stack == 0) continue;
      sites.insert(mark.throw_stack);
      SiteAgg& agg = methods[mark.method->qualified_name()]
                            [unwind::site_name(mark.throw_stack)];
      ++agg.count;
      ++(run.escaped ? agg.escaped : agg.masked);
      if (agg.stack == 0) agg.stack = mark.throw_stack;
      if (!mark.exception_type.empty())
        agg.exceptions.insert(mark.exception_type);
    }
    if (run.escape_stack != 0) {
      sites.insert(run.escape_stack);
      ++escapes[unwind::site_name(run.escape_stack)];
    }
  }

  std::ostringstream os;
  os << "{\"exceptions_thrown\":" << campaign.stats.exceptions_thrown
     << ",\"unique_throw_sites\":" << sites.size()
     << ",\"stacks_interned\":" << unwind::global_stack_table().size()
     << ",\"stack_evictions\":" << unwind::global_stack_table().evictions()
     << ",\"methods\":[";
  bool first = true;
  for (const auto& [method, site_map] : methods) {
    if (!first) os << ',';
    first = false;
    os << "{\"method\":\"" << json_escape(method) << "\",\"sites\":[";
    bool sfirst = true;
    for (const auto& [site, agg] : site_map) {
      if (!sfirst) os << ',';
      sfirst = false;
      os << "{\"site\":\"" << json_escape(site)
         << "\",\"count\":" << agg.count << ",\"masked\":" << agg.masked
         << ",\"escaped\":" << agg.escaped << ",\"exceptions\":[";
      bool efirst = true;
      for (const std::string& type : agg.exceptions) {
        if (!efirst) os << ',';
        efirst = false;
        os << '"' << json_escape(type) << '"';
      }
      os << "],\"stack\":[";
      efirst = true;
      for (const std::string& frame : unwind::symbolize_stack(agg.stack)) {
        if (!efirst) os << ',';
        efirst = false;
        os << '"' << json_escape(frame) << '"';
      }
      os << "]}";
    }
    os << "]}";
  }
  os << "],\"escapes\":[";
  first = true;
  for (const auto& [site, count] : escapes) {
    if (!first) os << ',';
    first = false;
    os << "{\"site\":\"" << json_escape(site) << "\",\"count\":" << count
       << '}';
  }
  os << "]}";
  return os.str();
}

std::string campaign_json(const detect::Campaign& campaign) {
  std::ostringstream os;
  os << "{\"schema_version\":2,\"runs\":" << campaign.runs.size()
     << ",\"injections\":" << campaign.injections()
     << ",\"pruned_runs\":" << campaign.pruned_runs
     << ",\"methods\":" << campaign.distinct_methods()
     << ",\"classes\":" << campaign.distinct_classes()
     << ",\"total_calls\":" << campaign.total_calls()
     << ",\"stats\":{";
  stat_block(os, campaign.stats, weave::StatBlock::stats);
  os << "},\"recovery\":{";
  stat_block(os, campaign.stats, weave::StatBlock::recovery);
  os << "},\"details\":[";
  bool first = true;
  for (const auto& run : campaign.runs) {
    if (!first) os << ',';
    first = false;
    os << "{\"point\":" << run.injection_point << ",\"site\":\""
       << json_escape(run.injected_method != nullptr
                          ? run.injected_method->qualified_name()
                          : "")
       << "\",\"exception\":\"" << json_escape(run.injected_exception)
       << "\",\"escaped\":" << (run.escaped ? "true" : "false")
       << ",\"marks\":" << run.marks.size() << '}';
  }
  os << "]";
  // The trace section carries per-worker attribution (scheduling metadata
  // that varies between executions), so it only appears for campaigns that
  // explicitly opted into tracing — untraced campaign_json stays
  // byte-deterministic across jobs values.
  if (campaign.trace.enabled)
    os << ",\"trace\":" << trace::trace_section_json(campaign);
  // Exception provenance (DESIGN.md §11): per-method throw-site histogram.
  // Gated on the campaign's provenance flag so reports from campaigns that
  // never armed capture stay byte-identical to earlier releases.
  if (campaign.provenance) os << ",\"exception_provenance\":" << provenance_json(campaign);
  os << '}';
  return os.str();
}

std::string campaign_json(const detect::Campaign& campaign,
                          const detect::Classification& cls,
                          const analyze::StaticReport& report) {
  std::string base = campaign_json(campaign);
  base.pop_back();  // drop the closing brace, append the static section

  std::ostringstream os;
  os << base << ",\"static_analysis\":{\"methods\":[";
  bool first = true;
  for (const auto& [name, es] : report.effects.methods) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(name) << "\",\"verdict\":\""
       << es.verdict() << "\",\"proven_atomic\":"
       << (es.proven_atomic() ? "true" : "false")
       << ",\"catches\":" << (es.catches ? "true" : "false")
       << ",\"mutation_events\":" << es.mutation_events
       << ",\"throw_events\":" << es.throw_events << '}';
  }
  // Agreement matrix: static verdict x dynamic classification.  Perfect
  // static analysis would put every proven method in the "atomic" column;
  // proven methods in non-atomic columns would disprove the prover.
  std::map<std::string, std::map<std::string, std::size_t>> matrix;
  for (const auto& [name, es] : report.effects.methods) {
    const detect::MethodResult* dyn = cls.find(name);
    const char* dynamic_tag = dyn == nullptr ? "unobserved" : cls_tag(dyn->cls);
    const char* static_tag = es.proven_atomic() ? "proven" : es.verdict();
    ++matrix[static_tag][dynamic_tag];
  }
  os << "],\"agreement\":{";
  first = true;
  for (const auto& [static_tag, row] : matrix) {
    if (!first) os << ',';
    first = false;
    os << '"' << static_tag << "\":{";
    bool inner = true;
    for (const auto& [dynamic_tag, count] : row) {
      if (!inner) os << ',';
      inner = false;
      os << '"' << dynamic_tag << "\":" << count;
    }
    os << '}';
  }
  // Write-set analysis (Pass 3): the checkpoint plan each method earned.
  os << "},\"write_sets\":{\"partial\":" << report.write_sets.partial_count()
     << ",\"total\":" << report.write_sets.methods.size() << ",\"methods\":[";
  first = true;
  for (const auto& [name, w] : report.write_sets.methods) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(name)
       << "\",\"partial\":" << (w.plan.partial ? "true" : "false");
    if (w.plan.partial) {
      os << ",\"capture\":[";
      bool inner = true;
      for (const std::string& n : w.plan.capture) {
        if (!inner) os << ',';
        inner = false;
        os << '"' << json_escape(n) << '"';
      }
      os << "],\"pruned\":" << w.plan.prune.size();
    } else {
      os << ",\"reason\":\"" << json_escape(w.top_reason) << "\",\"reasons\":[";
      bool inner = true;
      for (const std::string& r : w.top_reasons) {
        if (!inner) os << ',';
        inner = false;
        os << '"' << json_escape(r) << '"';
      }
      os << ']';
    }
    os << '}';
  }
  // Aggregate view over all the ⊤ verdicts: how often each collapsing rule
  // family fires (per-method detail suffixes stripped).
  os << "],\"top_histogram\":{";
  first = true;
  for (const auto& [family, count] : report.write_sets.top_histogram()) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(family) << "\":" << count;
  }
  // Fleet-wide aggregate: every rule firing counted (not deduplicated per
  // method) — the precision-targeting table of `--all --write-sets`.
  os << "},\"aggregate_top_histogram\":{";
  first = true;
  for (const auto& [family, count] :
       report.write_sets.aggregate_top_histogram()) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(family) << "\":" << count;
  }
  os << "}}}}";
  return os.str();
}

std::string campaign_json(const detect::Campaign& campaign,
                          const detect::Policy& policy) {
  std::string base = campaign_json(campaign);
  base.pop_back();  // drop the closing brace, append the policy section

  std::ostringstream os;
  os << base << ",\"policy_warnings\":[";
  bool first = true;
  for (const std::string& w : detect::unknown_policy_names(policy)) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(w) << '"';
  }
  os << "]}";
  return os.str();
}

}  // namespace fatomic::report
