// Named counters and histograms derived from a campaign and its trace —
// subsumes the raw RuntimeStats counters and extends them with per-method,
// per-exception-type and latency-distribution views.
//
// The registry is deliberately value-typed and merge-able: parallel
// campaigns build one per worker implicitly (through per-run trace slices)
// and campaign_metrics(campaign) folds everything into a single
// deterministic view.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fatomic::detect {
struct Campaign;
}

namespace fatomic::trace {

struct Trace;

/// Value distribution with exact nearest-rank percentiles.  Campaigns record
/// at most a few thousand observations per histogram, so values are stored
/// outright instead of bucketed — percentiles stay exact and merging is
/// concatenation.
class Histogram {
 public:
  void observe(std::uint64_t v);
  void merge(const Histogram& other);

  std::uint64_t count() const { return values_.size(); }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const;
  std::uint64_t max() const;
  double mean() const;
  /// Nearest-rank percentile, p in [0, 100].  0 when empty.
  std::uint64_t percentile(double p) const;

 private:
  mutable std::vector<std::uint64_t> values_;
  mutable bool sorted_ = true;
  std::uint64_t sum_ = 0;
};

class MetricsRegistry {
 public:
  /// Adds `delta` to the named counter, creating it at zero.
  void add(const std::string& name, std::uint64_t delta = 1);
  /// The named histogram, created empty on first use.
  Histogram& histogram(const std::string& name);

  std::uint64_t counter(const std::string& name) const;  ///< 0 when absent
  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  void merge(const MetricsRegistry& other);

  /// {"counters":{...},"histograms":{name:{count,sum,min,max,mean,p50,p90,
  /// p99}}} — embedded in campaign_json's trace section and --metrics.
  std::string to_json() const;
  /// Aligned human-readable table for --trace-summary / --metrics.
  std::string to_text() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Histogram> histograms_;
};

/// Builds the campaign's full metrics view:
///  - every RuntimeStats counter under "stats.*" (the registry subsumes the
///    legacy aggregate struct),
///  - per-exception-type injection counts under "injections.<type>",
///  - and, when the campaign was traced, per-method checkpoint units under
///    "checkpoint_units.<method>" plus latency histograms ("run_ns",
///    "snapshot_ns", "partial_checkpoint_ns", "compare_ns").
MetricsRegistry campaign_metrics(const detect::Campaign& campaign);

}  // namespace fatomic::trace
