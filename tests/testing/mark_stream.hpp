// Canonical mark stream of a detection campaign: the witness that the
// injection wrappers' capture elision (DESIGN.md §15) changes no
// observation.
//
// The files tests/golden/marks_<family>.txt were written by the eager
// injection wrapper, which took a before-snapshot on every call, before the
// wrapper learned to skip captures.  test_capture_elision.cpp asserts that
// every detection campaign still renders to them byte for byte.
//
// tests/golden/mask_verify.txt is the masked half: one line per family with
// the counters and the stream hash of its masked-verification campaign
// (mask_verify_line).  It was written while the atomicity wrapper still had
// its own checkpoint and restore code, before every protected call went
// through the recovery engine's constant rollback policy.
//
// tests/golden/diffs.txt pins what the diff names: one line per family with
// the hash of every non-atomic mark's detail and footprint (diffs_line).  It
// was written by the diff over decoded node tables, before the diff walked
// the record streams.
//
// tests/golden/baseline.txt pins the views of the original program that a
// detection campaign derives from its Count baseline: one line per family
// (baseline_line).  It was written while the Count run still kept per-method
// call counts and call-graph edges in maps of their own, beside its per-call
// table.
//
// Format: the method and exception names a family's stream mentions, each
// numbered in first-seen order, then one line per run and one indented line
// per mark:
//
//   run <threshold> <injected method #|-> <injected exception #|->
//       <escaped|caught>
//     mark <method #> <atomic|nonatomic> <depth> <exception #|->
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fatomic/detect/callgraph.hpp"
#include "fatomic/detect/campaign.hpp"
#include "fatomic/detect/classify.hpp"
#include "subjects/apps/apps.hpp"
#include "synthetic.hpp"

namespace mark_stream {

/// Numbers names in first-seen order.
class Names {
 public:
  std::string operator()(const std::string& name) {
    if (name.empty()) return "-";
    auto [it, fresh] = ids_.try_emplace(name, order_.size());
    if (fresh) order_.push_back(name);
    return std::to_string(it->second);
  }
  void print(std::ostream& os, const char* heading) const {
    os << heading << ' ' << order_.size() << '\n';
    for (std::size_t i = 0; i < order_.size(); ++i)
      os << "  " << i << ' ' << order_[i] << '\n';
  }

 private:
  std::map<std::string, std::size_t> ids_;
  std::vector<std::string> order_;
};

inline std::string render(const fatomic::detect::Campaign& campaign) {
  Names methods;
  Names exceptions;
  auto method = [&](const fatomic::weave::MethodInfo* mi) {
    return methods(mi == nullptr ? std::string() : mi->qualified_name());
  };
  std::ostringstream body;
  for (const fatomic::detect::RunRecord& run : campaign.runs) {
    body << "run " << run.injection_point << ' ' << method(run.injected_method)
         << ' ' << exceptions(run.injected_exception) << ' '
         << (run.escaped ? "escaped" : "caught") << '\n';
    for (const fatomic::weave::Mark& mark : run.marks)
      body << "  mark " << method(mark.method) << ' '
           << (mark.atomic ? "atomic" : "nonatomic") << ' ' << mark.depth
           << ' ' << exceptions(mark.exception_type) << '\n';
  }
  std::ostringstream os;
  methods.print(os, "methods");
  exceptions.print(os, "exceptions");
  os << body.str();
  return os.str();
}

/// Every family the witness covers: the 16 Table 1 applications, the three
/// demos kept out of all_apps(), and the synthetic workload.
inline std::vector<std::pair<std::string, std::function<void()>>> families() {
  std::vector<std::pair<std::string, std::function<void()>>> out;
  for (const subjects::apps::App& app : subjects::apps::all_apps())
    out.emplace_back(app.name, app.program);
  for (const char* demo : {"lintDemo", "netDemo", "ServerDemo"})
    out.emplace_back(demo, subjects::apps::app(demo).program);
  out.emplace_back("synthetic", [] { synthetic::workload(); });
  return out;
}

inline std::string golden_path(const std::string& family) {
  return std::string(FATOMIC_GOLDEN_DIR) + "/marks_" + family + ".txt";
}

/// The committed stream for `family`; empty when the file is missing.
inline std::string golden(const std::string& family) {
  std::ifstream in(golden_path(family), std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// 64-bit FNV-1a.
inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// One line of tests/golden/mask_verify.txt: the family name, the
/// campaign's `stats` block, its `recovery` block without policy_rollbacks,
/// and the FNV-1a hash of its rendered mark stream.
inline std::string mask_verify_line(const std::string& family,
                                    const fatomic::detect::Campaign& campaign) {
  using fatomic::weave::StatBlock;
  std::ostringstream os;
  os << family;
  for (const StatBlock block : {StatBlock::stats, StatBlock::recovery}) {
    os << (block == StatBlock::stats ? " stats" : " recovery");
    for (const fatomic::weave::StatField& f : fatomic::weave::kStatFields)
      if (f.block == block &&
          f.member != &fatomic::weave::RuntimeStats::policy_rollbacks)
        os << ' ' << f.json_key << '=' << campaign.stats.*f.member;
  }
  os << " marks " << std::hex << std::setw(16) << std::setfill('0')
     << fnv1a(render(campaign));
  return os.str();
}

inline std::string mask_verify_path() {
  return std::string(FATOMIC_GOLDEN_DIR) + "/mask_verify.txt";
}

/// The line for `family` in the committed golden file `path`; empty when
/// absent.
inline std::string golden_line(const std::string& path,
                               const std::string& family) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.compare(0, family.size() + 1, family + ' ') == 0) return line;
  return {};
}

/// The committed mask_verify.txt line for `family`; empty when absent.
inline std::string golden_mask_verify(const std::string& family) {
  return golden_line(mask_verify_path(), family);
}

/// One line of tests/golden/diffs.txt: the family name, its non-atomic mark
/// count, its footprint path count, and the FNV-1a hash of every non-atomic
/// mark's detail and footprint in stream order, from a record_diffs
/// campaign.
inline std::string diffs_line(const std::string& family,
                              const fatomic::detect::Campaign& campaign) {
  std::size_t nonatomic = 0;
  std::size_t paths = 0;
  std::ostringstream text;
  for (const fatomic::detect::RunRecord& run : campaign.runs)
    for (const fatomic::weave::Mark& mark : run.marks) {
      if (mark.atomic) continue;
      ++nonatomic;
      paths += mark.footprint.size();
      text << mark.detail << '\n';
      for (const std::string& path : mark.footprint)
        text << "  " << path << '\n';
    }
  std::ostringstream os;
  os << family << " nonatomic=" << nonatomic << " footprint=" << paths
     << " diffs " << std::hex << std::setw(16) << std::setfill('0')
     << fnv1a(text.str());
  return os.str();
}

inline std::string diffs_path() {
  return std::string(FATOMIC_GOLDEN_DIR) + "/diffs.txt";
}

/// One line of tests/golden/baseline.txt: the family name, its Table 1
/// counts (#methods, #classes), its total calls, its distinct call-graph
/// edges and its injections, then the FNV-1a hashes of the per-method call
/// counts (classification order: sorted by name) and of the call graph's
/// dot rendering.
inline std::string baseline_line(const std::string& family,
                                 const fatomic::detect::Campaign& campaign) {
  std::ostringstream counts;
  for (const fatomic::detect::MethodResult& m :
       fatomic::detect::classify(campaign).methods)
    counts << m.method->qualified_name() << ' ' << m.calls << '\n';
  const fatomic::detect::CallGraph graph =
      fatomic::detect::CallGraph::from(campaign);
  std::ostringstream os;
  os << family << " methods=" << campaign.distinct_methods()
     << " classes=" << campaign.distinct_classes()
     << " calls=" << campaign.total_calls()
     << " edges=" << graph.edge_count()
     << " injections=" << campaign.injections() << std::hex
     << std::setfill('0') << " counts " << std::setw(16)
     << fnv1a(counts.str()) << " dot " << std::setw(16)
     << fnv1a(graph.to_dot());
  return os.str();
}

inline std::string baseline_path() {
  return std::string(FATOMIC_GOLDEN_DIR) + "/baseline.txt";
}

}  // namespace mark_stream
