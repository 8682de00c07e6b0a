#include "fatomic/trace/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <set>
#include <sstream>

#include "fatomic/detect/campaign.hpp"
#include "fatomic/report/json.hpp"
#include "fatomic/trace/trace.hpp"
#include "fatomic/unwind/stack_table.hpp"

namespace fatomic::trace {

void Histogram::observe(std::uint64_t v) {
  values_.push_back(v);
  sorted_ = false;
  sum_ += v;
}

void Histogram::merge(const Histogram& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
  sum_ += other.sum_;
}

std::uint64_t Histogram::min() const {
  if (values_.empty()) return 0;
  return *std::min_element(values_.begin(), values_.end());
}

std::uint64_t Histogram::max() const {
  if (values_.empty()) return 0;
  return *std::max_element(values_.begin(), values_.end());
}

double Histogram::mean() const {
  if (values_.empty()) return 0;
  return static_cast<double>(sum_) / static_cast<double>(values_.size());
}

std::uint64_t Histogram::percentile(double p) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double clamped = std::min(100.0, std::max(0.0, p));
  // Nearest-rank: the smallest value with at least p% of observations at or
  // below it.
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(values_.size())));
  return values_[rank == 0 ? 0 : rank - 1];
}

void MetricsRegistry::add(const std::string& name, std::uint64_t delta) {
  counters_[name] += delta;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return histograms_[name];
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, v] : other.counters_) counters_[name] += v;
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    if (!first) os << ',';
    first = false;
    os << '"' << report::json_escape(name) << "\":" << v;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    os << '"' << report::json_escape(name) << "\":{\"count\":" << h.count()
       << ",\"sum\":" << h.sum() << ",\"min\":" << h.min()
       << ",\"max\":" << h.max() << ",\"mean\":" << h.mean()
       << ",\"p50\":" << h.percentile(50) << ",\"p90\":" << h.percentile(90)
       << ",\"p99\":" << h.percentile(99) << '}';
  }
  os << "}}";
  return os.str();
}

std::string MetricsRegistry::to_text() const {
  std::ostringstream os;
  os << "counters:\n";
  for (const auto& [name, v] : counters_)
    os << "  " << std::left << std::setw(44) << name << std::right
       << std::setw(12) << v << '\n';
  if (!histograms_.empty()) {
    os << "histograms:" << std::string(29, ' ') << std::right
       << std::setw(8) << "count" << std::setw(12) << "mean" << std::setw(12)
       << "p50" << std::setw(12) << "p90" << std::setw(12) << "p99"
       << std::setw(12) << "max" << '\n';
    for (const auto& [name, h] : histograms_)
      os << "  " << std::left << std::setw(38) << name << std::right
         << std::setw(8) << h.count() << std::setw(12)
         << static_cast<std::uint64_t>(h.mean()) << std::setw(12)
         << h.percentile(50) << std::setw(12) << h.percentile(90)
         << std::setw(12) << h.percentile(99) << std::setw(12) << h.max()
         << '\n';
  }
  return os.str();
}

MetricsRegistry campaign_metrics(const detect::Campaign& campaign) {
  MetricsRegistry m;

  // Every RuntimeStats counter, once, under a stable namespace.
  for (const weave::StatField& f : weave::kStatFields)
    m.add(std::string("stats.") + f.name, campaign.stats.*f.member);

  m.add("campaign.runs", campaign.runs.size());
  m.add("campaign.injections", campaign.injections());
  m.add("campaign.pruned_runs", campaign.pruned_runs);

  // Provenance counters: distinct throw sites observed by this campaign's
  // marks and escape records, plus the process-wide intern-table health
  // (admission bound pressure shows up as stack_evictions).
  if (campaign.provenance) {
    std::set<std::uint64_t> sites;
    for (const detect::RunRecord& r : campaign.runs) {
      for (const weave::Mark& mark : r.marks)
        if (mark.throw_stack != 0) sites.insert(mark.throw_stack);
      if (r.escape_stack != 0) sites.insert(r.escape_stack);
    }
    m.add("provenance.unique_throw_sites", sites.size());
    m.add("provenance.stacks_interned", unwind::global_stack_table().size());
    m.add("provenance.stack_evictions",
          unwind::global_stack_table().evictions());
  }

  // Per-exception-type injection counts come straight off the run records —
  // available with or without tracing.
  for (const detect::RunRecord& r : campaign.runs)
    if (!r.injected_exception.empty())
      m.add("injections." + r.injected_exception);

  // Trace-derived views: where checkpoint work and wall-clock go.
  for (const Event& e : campaign.trace.events) {
    switch (e.kind) {
      case EventKind::Run:
        m.histogram("run_ns").observe(e.dur_ns);
        break;
      case EventKind::Snapshot:
        m.histogram("snapshot_ns").observe(e.dur_ns);
        if (e.method != nullptr)
          m.add("checkpoint_units." + e.method->qualified_name(), e.value);
        break;
      case EventKind::PartialCheckpoint:
        m.histogram("partial_checkpoint_ns").observe(e.dur_ns);
        if (e.method != nullptr)
          m.add("checkpoint_units." + e.method->qualified_name(), e.value);
        break;
      case EventKind::Compare:
        m.histogram("compare_ns").observe(e.dur_ns);
        break;
      case EventKind::PlanLookup:
        m.add(e.value != 0 ? "plan_lookups.hit" : "plan_lookups.miss");
        break;
      case EventKind::Recovery:
        // Per-action recovery latency ("recovery_ns.retry", ...).
        m.histogram("recovery_ns." + e.detail).observe(e.dur_ns);
        break;
      default:
        break;
    }
  }
  return m;
}

}  // namespace fatomic::trace
