#include "fatomic/trace/export.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>

#include "fatomic/detect/campaign.hpp"
#include "fatomic/report/json.hpp"
#include "fatomic/trace/metrics.hpp"
#include "fatomic/unwind/provenance.hpp"

namespace fatomic::trace {

namespace {

/// Microseconds with sub-µs precision — the unit Chrome's "ts"/"dur" expect.
std::string us(std::uint64_t ns) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << static_cast<double>(ns) / 1000.0;
  return os.str();
}

void emit_metadata(std::ostringstream& os, int pid, int tid, const char* what,
                   const std::string& name, bool& first) {
  if (!first) os << ',';
  first = false;
  os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
     << ",\"name\":\"" << what << "\",\"args\":{\"name\":\""
     << report::json_escape(name) << "\"}}";
}

void emit_process(std::ostringstream& os, int pid, const Trace& trace,
                  const std::string& process_name, bool& first) {
  emit_metadata(os, pid, 0, "process_name", process_name, first);
  std::set<std::uint16_t> workers;
  for (const Event& e : trace.events) workers.insert(e.worker);
  for (std::uint16_t w : workers)
    emit_metadata(os, pid, w, "thread_name",
                  w == 0 ? "driver" : "worker " + std::to_string(w), first);

  for (const Event& e : trace.events) {
    if (!first) os << ',';
    first = false;
    // The span kinds a reader expects as spans even when the clock read
    // the same value at both ends.
    const bool span = e.dur_ns != 0 || e.kind == EventKind::Campaign ||
                      e.kind == EventKind::Baseline ||
                      e.kind == EventKind::Run || e.kind == EventKind::Rollback;
    os << "{\"ph\":\"" << (span ? "X" : "i") << "\",\"pid\":" << pid
       << ",\"tid\":" << e.worker << ",\"ts\":" << us(e.ts_ns);
    if (span)
      os << ",\"dur\":" << us(e.dur_ns);
    else
      os << ",\"s\":\"t\"";
    os << ",\"name\":\"" << to_string(e.kind)
       << "\",\"cat\":\"fatomic\",\"args\":{\"injection_point\":"
       << e.injection_point;
    if (e.method != nullptr)
      os << ",\"method\":\""
         << report::json_escape(e.method->qualified_name()) << '"';
    os << ",\"value\":" << e.value;
    if (!e.detail.empty())
      os << ",\"detail\":\"" << report::json_escape(e.detail) << '"';
    if (e.kind == EventKind::ThrowSite && e.value != 0) {
      // Symbolize the interned stack here, at export time — the capture
      // path recorded raw PCs only.
      os << ",\"stack\":[";
      bool sfirst = true;
      for (const std::string& frame : unwind::symbolize_stack(e.value)) {
        if (!sfirst) os << ',';
        sfirst = false;
        os << '"' << report::json_escape(frame) << '"';
      }
      os << ']';
    }
    os << "}}";
  }
}

}  // namespace

std::string chrome_trace_json(const Trace& trace,
                              const std::string& process_name) {
  return chrome_trace_json({{process_name, trace}});
}

std::string chrome_trace_json(
    const std::vector<std::pair<std::string, Trace>>& traces) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  int pid = 0;
  for (const auto& [name, trace] : traces)
    emit_process(os, pid++, trace, name, first);
  os << "],\"displayTimeUnit\":\"ms\"}";
  return os.str();
}

std::string trace_summary(const Trace& trace) {
  struct KindStats {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };
  std::map<std::string, KindStats> kinds;
  std::map<std::string, std::uint64_t> method_ns;
  for (const Event& e : trace.events) {
    KindStats& ks = kinds[to_string(e.kind)];
    ++ks.count;
    ks.total_ns += e.dur_ns;
    if (e.method != nullptr && e.dur_ns != 0)
      method_ns[e.method->qualified_name()] += e.dur_ns;
  }

  const std::uint64_t wall = trace.duration_ns();
  std::ostringstream os;
  os << "trace summary: " << trace.events.size() << " events, campaign "
     << us(wall) << " us\n";
  os << std::left << std::setw(20) << "  event" << std::right << std::setw(10)
     << "count" << std::setw(14) << "total us" << std::setw(12) << "mean us"
     << std::setw(9) << "share\n";
  for (const auto& [kind, ks] : kinds) {
    os << "  " << std::left << std::setw(18) << kind << std::right
       << std::setw(10) << ks.count << std::setw(14) << us(ks.total_ns)
       << std::setw(12) << us(ks.count == 0 ? 0 : ks.total_ns / ks.count);
    std::ostringstream share;
    if (wall != 0 && ks.total_ns != 0)
      share << std::fixed << std::setprecision(1)
            << 100.0 * static_cast<double>(ks.total_ns) /
                   static_cast<double>(wall)
            << '%';
    else
      share << '-';
    os << std::setw(8) << share.str() << '\n';
  }

  std::vector<std::pair<std::string, std::uint64_t>> top(method_ns.begin(),
                                                         method_ns.end());
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (top.size() > 5) top.resize(5);
  if (!top.empty()) {
    os << "  top methods by span time:\n";
    for (const auto& [name, ns] : top)
      os << "    " << std::left << std::setw(30) << name << std::right
         << std::setw(12) << us(ns) << " us\n";
  }

  // Throw-site provenance: one line per distinct captured throw site, most
  // frequent first (symbolized lazily here, never on the capture path).
  // Aggregated by rendered name so stack ids differing only in calling
  // context collapse into one row.
  std::map<std::string, std::uint64_t> site_counts;
  for (const Event& e : trace.events)
    if (e.kind == EventKind::ThrowSite && e.value != 0)
      ++site_counts[unwind::site_name(e.value)];
  if (!site_counts.empty()) {
    std::vector<std::pair<std::string, std::uint64_t>> sites(
        site_counts.begin(), site_counts.end());
    std::sort(sites.begin(), sites.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    os << "  throw sites:\n";
    for (const auto& [site, count] : sites)
      os << "    " << std::left << std::setw(52) << site << std::right
         << std::setw(8) << count << '\n';
  }
  return os.str();
}

std::string trace_section_json(const detect::Campaign& campaign) {
  std::ostringstream os;
  os << "{\"enabled\":" << (campaign.trace.enabled ? "true" : "false")
     << ",\"events\":" << campaign.trace.events.size()
     << ",\"duration_ns\":" << campaign.trace.duration_ns()
     << ",\"workers\":[";
  bool first = true;
  for (const auto& w : campaign.worker_stats) {
    if (!first) os << ',';
    first = false;
    os << "{\"worker\":" << w.worker << ",\"runs\":" << w.runs
       << ",\"stats\":{";
    report::stat_block(os, w.stats, weave::StatBlock::stats);
    os << "}}";
  }
  os << "],\"metrics\":" << campaign_metrics(campaign).to_json() << '}';
  return os.str();
}

}  // namespace fatomic::trace
