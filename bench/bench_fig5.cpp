// Regenerates Figure 5 of the paper: performance overhead of C++ masking as
// a function of the checkpointed object size and the percentage of calls
// that go to masked (wrapped) methods.  The baseline method costs ~0.5us,
// as in the paper; each cell reports the median of repeated runs.
//
// Also includes microbenches of the three checkpoint operations the
// wrappers perform, as a function of object size (google-benchmark section
// after the Figure 5 table): arena capture through a recycled pool, memcmp
// compare, and restore (a replay of the checkpoint's records, with the
// pool's restore scratch); and of the injector program P_I's two per-call
// costs: an intercepted call that throws nothing, and one injected
// exception unwinding through K nested instrumented calls.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "fatomic/fatomic.hpp"

namespace {

/// Synthetic subject: a payload vector (the checkpointed state) plus a
/// ~0.5us busy-loop method, in wrapped and unwrapped flavours.
class Payload {
 public:
  Payload() = default;

  void resize_bytes(std::size_t bytes) { data_.assign(bytes / 4, 1); }

  void work_wrapped() {
    FAT_INVOKE(work_wrapped, [&] { busy(); });
  }
  void work_plain() {
    FAT_INVOKE(work_plain, [&] { busy(); });
  }
  long acc() const { return acc_; }

 private:
  FAT_REFLECT_FRIEND(Payload);
  FAT_METHOD_INFO(Payload, work_wrapped);
  FAT_METHOD_INFO(Payload, work_plain);

  void busy() {
    // Serial LCG dependency chain (~0.5us), not foldable by the compiler.
    unsigned long x = static_cast<unsigned long>(acc_) + 1;
    for (int i = 0; i < 330; ++i) x = x * 1664525UL + 1013904223UL;
    acc_ = static_cast<long>(x);
  }

  std::vector<int> data_;
  long acc_ = 0;
};

/// K nested instrumented calls over a one-field receiver: descend(k) calls
/// descend(k - 1) down to descend(1).
class Chain {
 public:
  void descend(int k) {
    FAT_INVOKE(descend, [&] {
      if (k > 1) descend(k - 1);
    });
  }

 private:
  FAT_REFLECT_FRIEND(Chain);
  FAT_METHOD_INFO(Chain, descend);

  long tag_ = 0;
};

}  // namespace

FAT_REFLECT(Payload, FAT_FIELD(Payload, data_), FAT_FIELD(Payload, acc_));
FAT_REFLECT(Chain, FAT_FIELD(Chain, tag_));

namespace {

using Clock = std::chrono::steady_clock;

double ns_per_call(Payload& p, int calls, int wrap_every) {
  const auto t0 = Clock::now();
  for (int i = 0; i < calls; ++i) {
    if (wrap_every > 0 && i % wrap_every == 0)
      p.work_wrapped();
    else
      p.work_plain();
  }
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / calls;
}

double median_ns(Payload& p, int calls, int wrap_every, int reps) {
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) xs.push_back(ns_per_call(p, calls, wrap_every));
  std::sort(xs.begin(), xs.end());
  return xs[static_cast<std::size_t>(reps) / 2];
}

/// Prints the Figure 5 table and returns its rows as a JSON array (the
/// google-benchmark section below has its own --benchmark_format=json).
std::string figure5() {
  auto& rt = fatomic::weave::Runtime::instance();
  rt.set_wrap_predicate([](const fatomic::weave::MethodInfo& mi) {
    return mi.method_name() == "work_wrapped";
  });

  constexpr int kCalls = 500;
  constexpr int kReps = 9;
  const std::size_t sizes[] = {64, 256, 1024, 4096, 16384};
  // wrap_every = 100000/pct_x1000: {0, 0.1, 1, 10, 100} percent of calls.
  struct Ratio {
    const char* label;
    int wrap_every;  // 0 = never
  };
  const Ratio ratios[] = {
      {"0%", 0}, {"0.1%", 1000}, {"1%", 100}, {"10%", 10}, {"100%", 1}};

  std::cout << "Figure 5: C++ masking overhead (median ns/call; baseline "
               "method ~0.5us)\n";
  std::cout << "size_bytes";
  for (const Ratio& r : ratios) std::cout << '\t' << r.label;
  std::cout << "\toverhead@100%\n";

  bench_common::JsonArray rows;
  for (std::size_t bytes : sizes) {
    Payload p;
    p.resize_bytes(bytes);
    // Baseline: the original (Direct) program.
    rt.set_mode(fatomic::weave::Mode::Direct);
    const double base = median_ns(p, kCalls, 1, kReps);
    std::cout << bytes;
    double worst = base;
    bench_common::JsonObject row;
    row.put("size_bytes", bytes).put("baseline_ns", base);
    rt.set_mode(fatomic::weave::Mode::Mask);
    for (const Ratio& r : ratios) {
      const double ns = median_ns(p, kCalls, r.wrap_every, kReps);
      worst = std::max(worst, ns);
      std::cout << '\t' << static_cast<long>(ns);
      row.put(std::string("ns_at_") + r.label, ns);
    }
    std::cout << '\t' << worst / base << "x\n";
    rows.add_raw(row.put("overhead_factor", worst / base).dump());
    rt.set_mode(fatomic::weave::Mode::Direct);
  }
  rt.set_wrap_predicate(nullptr);
  std::cout << "(overhead grows with checkpoint size and wrapped-call "
               "percentage, as in the paper)\n\n";
  return rows.dump();
}

// ---- checkpoint microbenches -------------------------------------------------

void BM_Capture(benchmark::State& state) {
  Payload p;
  p.resize_bytes(static_cast<std::size_t>(state.range(0)));
  fatomic::snapshot::ArenaPool pool;
  for (auto _ : state) {
    auto cp = fatomic::snapshot::arena_capture(p, &pool);
    benchmark::DoNotOptimize(cp);
  }
}
BENCHMARK(BM_Capture)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Restore(benchmark::State& state) {
  Payload p;
  p.resize_bytes(static_cast<std::size_t>(state.range(0)));
  fatomic::snapshot::ArenaPool pool;
  const auto cp = fatomic::snapshot::arena_capture(p, &pool);
  for (auto _ : state) {
    fatomic::snapshot::restore(p, cp, &pool);
  }
}
BENCHMARK(BM_Restore)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Compare(benchmark::State& state) {
  Payload p;
  p.resize_bytes(static_cast<std::size_t>(state.range(0)));
  const auto a = fatomic::snapshot::arena_capture(p);
  const auto b = fatomic::snapshot::arena_capture(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.equals(b));
  }
}
BENCHMARK(BM_Compare)->Arg(64)->Arg(1024)->Arg(16384);

void BM_InjectionWrapperCost(benchmark::State& state) {
  // Cost of one intercepted call in the exception injector program P_I
  // (threshold never reached: pure instrumentation overhead).  begin_run
  // gets no baseline table, so every call takes its before-snapshot.
  auto& rt = fatomic::weave::Runtime::instance();
  Payload p;
  p.resize_bytes(static_cast<std::size_t>(state.range(0)));
  rt.set_mode(fatomic::weave::Mode::Inject);
  rt.begin_run(0);
  for (auto _ : state) {
    p.work_plain();
  }
  rt.set_mode(fatomic::weave::Mode::Direct);
}
BENCHMARK(BM_InjectionWrapperCost)->Arg(64)->Arg(4096);

void BM_InjectedException(benchmark::State& state) {
  // One injector run's exception: raised at the entry of the innermost of K
  // nested calls (descend declares nothing, so call k's only injection
  // point is point k) and caught at the top level, after the K - 1
  // enclosing injection wrappers compared and marked it as it unwound past
  // them.  begin_run gets no baseline table, so every call takes its
  // before-snapshot.
  auto& rt = fatomic::weave::Runtime::instance();
  const int k = static_cast<int>(state.range(0));
  Chain chain;
  rt.set_mode(fatomic::weave::Mode::Inject);
  for (auto _ : state) {
    rt.begin_run(static_cast<std::uint64_t>(k));
    try {
      chain.descend(k);
    } catch (const fatomic::InjectedRuntimeError&) {
    }
  }
  rt.set_mode(fatomic::weave::Mode::Direct);
}
BENCHMARK(BM_InjectedException)->Arg(1)->Arg(4)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  const std::string rows = figure5();
  bench_common::write_bench_json(
      "fig5", bench_common::JsonObject{}.put_raw("rows", rows).dump());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
