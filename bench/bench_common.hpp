// Shared helpers for the evaluation benches: run a full injection campaign
// for one named subject application and package the result for the report
// formatters, plus a tiny JSON emitter so every bench leaves a
// machine-readable BENCH_<name>.json artifact next to its stdout table.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "fatomic/detect/classify.hpp"
#include "fatomic/detect/experiment.hpp"
#include "fatomic/report/json.hpp"
#include "fatomic/report/report.hpp"
#include "fatomic/unwind/provenance.hpp"
#include "subjects/apps/apps.hpp"

namespace bench_common {

namespace detail {

inline std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace detail

/// Minimal append-only JSON object builder.  Key order is insertion order;
/// nesting goes through put_raw() with another builder's dump().
class JsonObject {
 public:
  template <class T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  JsonObject& put(const std::string& k, T v) {
    key(k);
    buf_ += std::to_string(v);
    return *this;
  }
  JsonObject& put(const std::string& k, bool v) {
    key(k);
    buf_ += v ? "true" : "false";
    return *this;
  }
  JsonObject& put(const std::string& k, double v) {
    key(k);
    buf_ += detail::number(v);
    return *this;
  }
  JsonObject& put(const std::string& k, const std::string& v) {
    key(k);
    buf_ += '"' + fatomic::report::json_escape(v) + '"';
    return *this;
  }
  JsonObject& put(const std::string& k, const char* v) {
    return put(k, std::string(v));
  }
  /// Inserts `json` verbatim — for nested objects/arrays.
  JsonObject& put_raw(const std::string& k, const std::string& json) {
    key(k);
    buf_ += json;
    return *this;
  }
  std::string dump() const { return buf_ + "}"; }

 private:
  void key(const std::string& k) {
    if (!first_) buf_ += ',';
    first_ = false;
    buf_ += '"' + fatomic::report::json_escape(k) + "\":";
  }
  std::string buf_ = "{";
  bool first_ = true;
};

/// Minimal JSON array builder; elements are pre-rendered JSON values.
class JsonArray {
 public:
  JsonArray& add_raw(const std::string& json) {
    if (!first_) buf_ += ',';
    first_ = false;
    buf_ += json;
    return *this;
  }
  std::string dump() const { return buf_ + "]"; }

 private:
  std::string buf_ = "[";
  bool first_ = true;
};

/// Run metadata stamped into every bench artifact: which build produced the
/// numbers (git describe, baked in by bench/CMakeLists.txt) and how many
/// hardware threads the machine has — the knobs that make two BENCH_*.json
/// files incomparable when they differ.  `hardware_threads` is the key
/// perfbench's meta uses for the same number; it is not how many jobs a
/// bench ran with.
inline std::string bench_meta_json() {
  return JsonObject{}
      // Artifact schema counter, shared with campaign_json: bumped to 2 when
      // the "recovery" stats section and recovery bench artifacts landed.
      .put("schema_version", 2)
#ifdef FATOMIC_GIT_DESCRIBE
      .put("git", FATOMIC_GIT_DESCRIBE)
#else
      .put("git", "unknown")
#endif
      .put("hardware_threads", std::thread::hardware_concurrency())
      .put("provenance_available", fatomic::unwind::available())
      .dump();
}

/// Writes `json` to BENCH_<bench>.json in the working directory and notes
/// the artifact on stdout so CI logs show where the data went.  Every
/// artifact is a top-level object; a "meta" section (bench_meta_json) is
/// stamped into it here so no bench can forget it.
inline void write_bench_json(const std::string& bench,
                             const std::string& json) {
  std::string stamped = json;
  if (!stamped.empty() && stamped.back() == '}') {
    stamped.pop_back();
    if (stamped.size() > 1) stamped += ',';
    stamped += "\"meta\":" + bench_meta_json() + "}";
  }
  const std::string path = "BENCH_" + bench + ".json";
  std::ofstream out(path);
  out << stamped << '\n';
  if (out)
    std::cout << "bench json: " << path << '\n';
  else
    std::cerr << "bench json: FAILED to write " << path << '\n';
}

/// One JSON row per app campaign — the shared shape for the table/figure
/// bench artifacts.
inline std::string app_results_json(
    const std::vector<fatomic::report::AppResult>& apps) {
  using fatomic::detect::MethodClass;
  JsonArray rows;
  for (const auto& r : apps)
    rows.add_raw(
        JsonObject{}
            .put("name", r.name)
            .put("language", r.language)
            .put("runs", r.campaign.runs.size())
            .put("calls", r.campaign.total_calls())
            .put("methods", r.classification.methods.size())
            .put("atomic", r.classification.count_methods(MethodClass::Atomic))
            .put("conditional", r.classification.count_methods(
                                    MethodClass::ConditionalNonAtomic))
            .put("pure",
                 r.classification.count_methods(MethodClass::PureNonAtomic))
            .dump());
  return rows.dump();
}

inline fatomic::report::AppResult run_app_campaign(
    const subjects::apps::App& app) {
  fatomic::detect::Experiment exp(app.program);
  fatomic::report::AppResult r;
  r.name = app.name;
  r.language = app.language;
  r.campaign = exp.run();
  r.classification = fatomic::detect::classify(r.campaign);
  return r;
}

inline std::vector<fatomic::report::AppResult> run_suite(
    const std::string& language) {
  std::vector<fatomic::report::AppResult> out;
  for (const auto& app : subjects::apps::apps_of(language))
    out.push_back(run_app_campaign(app));
  return out;
}

inline std::vector<fatomic::report::AppResult> run_all() {
  std::vector<fatomic::report::AppResult> out;
  for (const auto& app : subjects::apps::all_apps())
    out.push_back(run_app_campaign(app));
  return out;
}

}  // namespace bench_common
