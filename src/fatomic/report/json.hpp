// JSON emission for campaigns and classifications — machine-readable output
// for dashboards and offline analysis (the paper's prototype wrote log files
// processed offline; this is our structured equivalent).
#pragma once

#include <iosfwd>
#include <string>

#include "fatomic/analyze/static_report.hpp"
#include "fatomic/detect/campaign.hpp"
#include "fatomic/detect/classify.hpp"

namespace fatomic::report {

/// One JSON object per method: name, class, classification, calls, marks.
std::string classification_json(const detect::Classification& cls);

/// Campaign summary: runs, injections, per-run injected site and outcome.
std::string campaign_json(const detect::Campaign& campaign);

/// Campaign summary extended with a "static_analysis" section: per-method
/// static verdicts, the static-vs-dynamic agreement matrix (static verdict
/// x dynamic classification, with "unobserved" for methods the campaign
/// never called), and the write-set analysis' per-method checkpoint plans.
std::string campaign_json(const detect::Campaign& campaign,
                          const detect::Classification& cls,
                          const analyze::StaticReport& report);

/// Campaign summary extended with a "policy_warnings" array: policy entries
/// naming methods the registry has never seen (detect::unknown_policy_names).
std::string campaign_json(const detect::Campaign& campaign,
                          const detect::Policy& policy);

/// The "exception_provenance" section of campaign_json on its own: per-method
/// throw-site histogram (site name, symbolized stack, count, exception types,
/// masked/escaped disposition) plus escape-site counts and intern-table
/// health.  Only meaningful for campaigns run with provenance enabled;
/// campaign_json embeds it exactly when Campaign::provenance is set.
std::string provenance_json(const detect::Campaign& campaign);

/// Escapes a string for inclusion in JSON output.
std::string json_escape(const std::string& s);

/// The counters runtime_stats.def places in `block`, as "key":value pairs
/// in list order: campaign JSON's stats and recovery blocks, and the trace
/// section's per-worker stats.
void stat_block(std::ostream& os, const weave::RuntimeStats& stats,
                weave::StatBlock block);

}  // namespace fatomic::report
