// Provenance overhead gate: with throw-site capture armed, code that does
// not throw must pay (almost) nothing, and each throw must
// pay only the bounded raw-PC capture — or CI fails the job (exit 2).
//
// Two gated bounds plus context measurements:
//  1. Non-throwing-path bound (< 1%) — provenance executes instructions
//     only inside the interposed __cxa_throw, so its cost on a workload is
//     bounded by (throws the workload performs) x (armed per-throw cost).
//     throws_captured() counts exactly those throws while the workload runs
//     armed, making the product — and therefore the gated percentage —
//     exact rather than statistical, which keeps the gate robust on noisy
//     CI machines.  The gate runs a throw-free compute kernel: the counter
//     proves it performed zero armed throws, so the bound must come out
//     0.000%; a nonzero bound means the "zero cost until a throw" design
//     claim no longer holds.
//  2. Throw-path bound (< 10 us per throw) — the armed-minus-unarmed
//     per-throw delta is the cost of one raw-PC backtrace into the
//     thread-local slot.  Symbolization (dladdr + demangling) is deferred
//     to export time; if capture ever regresses into symbolizing eagerly,
//     this bound trips.
//  3. Context only — armed vs unarmed end-to-end on the kernel and on a
//     real throwing subject (LinkedList), plus what a provenance campaign
//     records for that subject.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <set>
#include <vector>

#include "bench_common.hpp"
#include "fatomic/common/error.hpp"
#include "fatomic/config.hpp"
#include "fatomic/detect/experiment.hpp"
#include "fatomic/unwind/provenance.hpp"
#include "subjects/apps/apps.hpp"

namespace detect = fatomic::detect;
namespace unwind = fatomic::unwind;

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Throw-free compute kernel standing in for application code between
/// exceptional events: pointer-chasing list churn, no allocation failure
/// paths exercised, nothing thrown.
std::uint64_t kernel_once() {
  std::vector<std::uint64_t> ring(4096);
  std::uint64_t acc = 0x9e3779b97f4a7c15ull;
  for (int pass = 0; pass < 200; ++pass) {
    for (std::size_t i = 0; i < ring.size(); ++i) {
      acc ^= acc << 13;
      acc ^= acc >> 7;
      acc ^= acc << 17;
      ring[i] = acc + ring[(i * 31 + pass) & (ring.size() - 1)];
    }
    acc += ring[acc & (ring.size() - 1)];
  }
  return acc;
}

volatile std::uint64_t g_sink;  // defeat dead-code elimination

/// ms for one timed run of `body` with capture armed or not.
double timed_ms(const std::function<void()>& body, bool armed) {
  unwind::ScopedArm arm(armed);
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double median_ms(const std::function<void()>& body, bool armed) {
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) samples.push_back(timed_ms(body, armed));
  return median(std::move(samples));
}

/// ns per throw+catch round trip through the interposed __cxa_throw.
double throw_ns(bool armed) {
  unwind::ScopedArm arm(armed);
  constexpr int kIters = 100'000;
  for (int i = 0; i < 1'000; ++i) {  // settle predictors and the dlsym cache
    try {
      throw fatomic::InjectedRuntimeError();
    } catch (...) {
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    try {
      throw fatomic::InjectedRuntimeError();
    } catch (...) {
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / kIters;
}

}  // namespace

int main() {
  const double unarmed_throw = throw_ns(false);
  const double armed_throw = throw_ns(true);
  const double capture_ns = armed_throw - unarmed_throw;

  // Non-throwing kernel, with the capture counter proving it never entered
  // the interposer while armed.
  const auto kernel = [] { for (int i = 0; i < 20; ++i) g_sink = kernel_once(); };
  const std::uint64_t captured_before = unwind::throws_captured();
  const double kernel_armed_ms = median_ms(kernel, true);
  const std::uint64_t kernel_throws =
      (unwind::throws_captured() - captured_before) / 5;
  const double kernel_unarmed_ms = median_ms(kernel, false);

  const double bound_ms =
      static_cast<double>(kernel_throws) * armed_throw / 1e6;
  const double bound_pct =
      kernel_unarmed_ms > 0 ? 100.0 * bound_ms / kernel_unarmed_ms : 0.0;
  const double kernel_delta_pct =
      kernel_unarmed_ms > 0
          ? 100.0 * (kernel_armed_ms - kernel_unarmed_ms) / kernel_unarmed_ms
          : 0.0;

  // Context: a real throwing subject end-to-end, and what a provenance
  // campaign records for it.
  const auto& app = subjects::apps::app("LinkedList");
  const auto subject = [&] { for (int i = 0; i < 20; ++i) app.program(); };
  const std::uint64_t app_before = unwind::throws_captured();
  const double app_armed_ms = median_ms(subject, true);
  const std::uint64_t app_throws =
      (unwind::throws_captured() - app_before) / 5;
  const double app_unarmed_ms = median_ms(subject, false);
  const double app_delta_pct =
      app_unarmed_ms > 0
          ? 100.0 * (app_armed_ms - app_unarmed_ms) / app_unarmed_ms
          : 0.0;

  fatomic::Config config;
  config.provenance(true);
  const detect::Campaign campaign =
      detect::Experiment(app.program, config).run();
  std::set<std::uint64_t> sites;
  for (const auto& run : campaign.runs)
    for (const auto& mark : run.marks)
      if (mark.throw_stack != 0) sites.insert(mark.throw_stack);

  constexpr double kThrowGateNs = 10'000.0;  // raw-PC capture, no symbols
  const bool nonthrowing_pass = bound_pct < 1.0;
  const bool throw_path_pass = capture_ns < kThrowGateNs;

  std::printf("provenance overhead gates\n");
  std::printf("  throw, unarmed:            %8.1f ns (relaxed load + "
              "pass-through)\n",
              unarmed_throw);
  std::printf("  throw, armed:              %8.1f ns (+%.1f ns raw-PC "
              "capture; gate: < %.0f ns) %s\n",
              armed_throw, capture_ns, kThrowGateNs,
              throw_path_pass ? "PASS" : "FAIL");
  std::printf("  kernel (0-throw), unarmed: %8.2f ms (median of 5)\n",
              kernel_unarmed_ms);
  std::printf("  kernel (0-throw), armed:   %8.2f ms (%+.2f%%, context "
              "only)\n",
              kernel_armed_ms, kernel_delta_pct);
  std::printf("  non-throwing-path bound:   %8.3f ms = %llu throws x "
              "%.1f ns = %.3f%% of kernel (gate: < 1%%) %s\n",
              bound_ms, static_cast<unsigned long long>(kernel_throws),
              armed_throw, bound_pct, nonthrowing_pass ? "PASS" : "FAIL");
  std::printf("  subject %s:        %8.2f ms unarmed, %.2f ms armed "
              "(%+.2f%%, %llu throws/pass, context only)\n",
              app.name.c_str(), app_unarmed_ms, app_armed_ms, app_delta_pct,
              static_cast<unsigned long long>(app_throws / 20));
  std::printf("  campaign context:          %llu exceptions observed, %zu "
              "distinct throw sites\n",
              static_cast<unsigned long long>(
                  campaign.stats.exceptions_thrown),
              sites.size());

  const bool pass = nonthrowing_pass && throw_path_pass;
  std::printf("  gate: %s\n", pass ? "PASS" : "FAIL");

  bench_common::write_bench_json(
      "provenance",
      bench_common::JsonObject{}
          .put("available", true)
          .put("unarmed_throw_ns", unarmed_throw)
          .put("armed_throw_ns", armed_throw)
          .put("capture_ns", capture_ns)
          .put("throw_gate_ns", kThrowGateNs)
          .put("kernel_throws", kernel_throws)
          .put("kernel_unarmed_ms", kernel_unarmed_ms)
          .put("kernel_armed_ms", kernel_armed_ms)
          .put("kernel_delta_pct", kernel_delta_pct)
          .put("nonthrowing_bound_pct", bound_pct)
          .put("nonthrowing_gate_pct", 1.0)
          .put("app", app.name)
          .put("app_unarmed_ms", app_unarmed_ms)
          .put("app_armed_ms", app_armed_ms)
          .put("app_delta_pct", app_delta_pct)
          .put("campaign_exceptions", campaign.stats.exceptions_thrown)
          .put("campaign_throw_sites", sites.size())
          .put("pass", pass)
          .dump());
  return pass ? 0 : 2;
}
