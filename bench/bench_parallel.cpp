// Parallel-campaign speedup: sequential vs N-thread wall time of the full
// injection campaign over the collections subjects (Config::jobs).
// Campaign runs at distinct thresholds are independent re-executions, so on
// a machine with J hardware threads the campaign phase should approach a Jx
// speedup; the Count-mode baseline run stays sequential.  The bench prints
// one row per subject plus a suite total, and verifies on the fly that the
// parallel campaign classifies identically to the sequential one.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "fatomic/detect/classify.hpp"
#include "fatomic/detect/experiment.hpp"
#include "fatomic/report/json.hpp"
#include "subjects/apps/apps.hpp"

namespace detect = fatomic::detect;

namespace {

double campaign_ms(const std::function<void()>& program, unsigned jobs,
                   detect::Campaign& out) {
  fatomic::Config config;
  config.jobs(jobs);
  const auto t0 = std::chrono::steady_clock::now();
  out = detect::Experiment(program, config).run();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main() {
  const unsigned jobs = 4;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("parallel campaign speedup (jobs=%u, hardware threads=%u)\n",
              jobs, hw);
  std::printf("%-16s %10s %10s %8s %6s\n", "app", "seq ms", "par ms",
              "speedup", "same");

  // The collections subjects of the Java suite (Table 1).
  const std::vector<std::string> names = {
      "CircularList", "Dynarray",     "HashedMap", "HashedSet",   "LLMap",
      "LinkedBuffer", "LinkedList",   "RBMap",     "RBTree"};

  double seq_total = 0, par_total = 0;
  bool all_identical = true;
  bench_common::JsonArray rows;
  for (const std::string& name : names) {
    const auto& app = subjects::apps::app(name);
    detect::Campaign seq, par;
    // Median-of-3 to keep one-off scheduling noise out of the ratio.
    double seq_ms = 1e300, par_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      seq_ms = std::min(seq_ms, campaign_ms(app.program, 1, seq));
      par_ms = std::min(par_ms, campaign_ms(app.program, jobs, par));
    }
    const bool identical =
        fatomic::report::campaign_json(seq) ==
            fatomic::report::campaign_json(par) &&
        fatomic::report::classification_json(detect::classify(seq)) ==
            fatomic::report::classification_json(detect::classify(par));
    all_identical = all_identical && identical;
    seq_total += seq_ms;
    par_total += par_ms;
    std::printf("%-16s %10.1f %10.1f %7.2fx %6s\n", app.name.c_str(), seq_ms,
                par_ms, seq_ms / par_ms, identical ? "yes" : "NO");
    rows.add_raw(bench_common::JsonObject{}
                     .put("app", app.name)
                     .put("seq_ms", seq_ms)
                     .put("par_ms", par_ms)
                     .put("speedup", seq_ms / par_ms)
                     .put("identical", identical)
                     .dump());
  }
  std::printf("%-16s %10.1f %10.1f %7.2fx %6s\n", "TOTAL", seq_total,
              par_total, seq_total / par_total, all_identical ? "yes" : "NO");
  if (hw < jobs)
    std::printf("note: only %u hardware thread(s); speedup is bounded by the "
                "machine, not the sharding\n",
                hw);
  bench_common::write_bench_json(
      "parallel", bench_common::JsonObject{}
                      .put("jobs", jobs)
                      .put("hardware_threads", hw)
                      .put_raw("apps", rows.dump())
                      .put("seq_total_ms", seq_total)
                      .put("par_total_ms", par_total)
                      .put("speedup", seq_total / par_total)
                      .put("all_identical", all_identical)
                      .dump());
  return all_identical ? 0 : 1;
}
