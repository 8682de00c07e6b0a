// Exception provenance (DESIGN.md §11): the bounded stack intern table,
// __cxa_throw capture arming and record matching, campaign integration
// (marks / escapes / counters), determinism across jobs values, the
// exception_provenance report section, and the wrapper engine's frame
// budget read back from captured stacks.
//
// Every capture-dependent test degrades to GTEST_SKIP when the interposer is
// compiled out (-DFATOMIC_PROVENANCE=OFF) or unavailable on this toolchain,
// so the kill-switch CI configuration runs the same binary green.
#include "fatomic/unwind/provenance.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "fatomic/config.hpp"
#include "fatomic/detect/experiment.hpp"
#include "fatomic/report/json.hpp"
#include "fatomic/report/json_parse.hpp"
#include "fatomic/trace/export.hpp"
#include "fatomic/trace/metrics.hpp"
#include "fatomic/trace/trace.hpp"
#include "fatomic/unwind/stack_table.hpp"
#include "fatomic/weave/macros.hpp"
#include "testing/synthetic.hpp"

// A named namespace: -rdynamic exports these frames' symbols, so the frame
// budget test can read the method names back from the captured stacks.
namespace budget_subject {

/// A two-level instrumented call through every wrapper entry point: the
/// constructor through invoke_static, outer through invoke and inner, which
/// checkpoints its by-reference argument too, through invoke_with.  noinline
/// keeps both methods as frames of their own on every build.
class Pair {
 public:
  Pair() { FAT_CTOR_ENTRY(); }

  [[gnu::noinline]] void outer(int& n) {
    FAT_INVOKE(outer, [&] {
      ++value_;
      inner(n);
    });
  }
  [[gnu::noinline]] void inner(int& n) {
    FAT_INVOKE_ARGS(inner, std::tie(n), [&] { n += value_; });
  }

 private:
  FAT_REFLECT_FRIEND(Pair);
  FAT_CTOR_INFO(budget_subject::Pair);
  FAT_METHOD_INFO(budget_subject::Pair, outer);
  FAT_METHOD_INFO(budget_subject::Pair, inner);

  int value_ = 0;
};

void program() {
  Pair pair;
  int n = 0;
  pair.outer(n);
}

}  // namespace budget_subject

FAT_REFLECT(budget_subject::Pair, FAT_FIELD(budget_subject::Pair, value_));

namespace detect = fatomic::detect;
namespace report = fatomic::report;
namespace trace = fatomic::trace;
namespace unwind = fatomic::unwind;
namespace weave = fatomic::weave;

namespace {

detect::Campaign provenance_campaign(std::function<void()> program,
                                     unsigned jobs = 1, bool tracing = false) {
  fatomic::Config config;
  config.jobs(jobs).provenance(true).tracing(tracing);
  return detect::Experiment(std::move(program), config).run();
}

class ProvenanceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    auto& rt = weave::Runtime::instance();
    rt.set_mode(weave::Mode::Direct);
    rt.set_wrap_predicate(nullptr);
    rt.trace.disable();
  }
};

}  // namespace

// ---- stack intern table (compiled in regardless of the kill switch) --------

TEST(StackTable, ContentAddressedIds) {
  unwind::StackTable t;
  const void* a[3] = {reinterpret_cast<const void*>(0x1000),
                      reinterpret_cast<const void*>(0x2000),
                      reinterpret_cast<const void*>(0x3000)};
  const void* b[3] = {reinterpret_cast<const void*>(0x1000),
                      reinterpret_cast<const void*>(0x2000),
                      reinterpret_cast<const void*>(0x3001)};
  const std::uint64_t ia = t.intern(a, 3);
  EXPECT_NE(ia, 0u);
  EXPECT_EQ(t.intern(a, 3), ia);  // re-intern is idempotent
  EXPECT_NE(t.intern(b, 3), ia);  // one PC differs -> different id
  EXPECT_NE(t.intern(a, 2), ia);  // prefix -> different id
  EXPECT_EQ(t.size(), 3u);
  const std::vector<const void*> frames = t.lookup(ia);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[1], a[1]);
}

// The property the jobs=1 vs jobs=N canonical-stream guarantee rests on:
// ids depend only on stack content, never on which table (or worker)
// interned first, nor in what order.
TEST(StackTable, IdsIndependentOfInternOrder) {
  unwind::StackTable first, second;
  const void* x[2] = {reinterpret_cast<const void*>(0xAAAA),
                      reinterpret_cast<const void*>(0xBBBB)};
  const void* y[1] = {reinterpret_cast<const void*>(0xCCCC)};
  const std::uint64_t x_first = first.intern(x, 2);
  const std::uint64_t y_first = first.intern(y, 1);
  const std::uint64_t y_second = second.intern(y, 1);  // reversed order
  const std::uint64_t x_second = second.intern(x, 2);
  EXPECT_EQ(x_first, x_second);
  EXPECT_EQ(y_first, y_second);
}

TEST(StackTable, EmptyStackIsTheSentinel) {
  unwind::StackTable t;
  const void* a[1] = {reinterpret_cast<const void*>(0x1)};
  EXPECT_EQ(t.intern(nullptr, 0), 0u);
  EXPECT_EQ(t.intern(a, 0), 0u);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.lookup(0).empty());
}

TEST(StackTable, AdmissionBoundDropsFramesButKeepsStableIds) {
  unwind::StackTable t(2);
  const void* a[1] = {reinterpret_cast<const void*>(0x10)};
  const void* b[1] = {reinterpret_cast<const void*>(0x20)};
  const void* c[1] = {reinterpret_cast<const void*>(0x30)};
  const std::uint64_t ia = t.intern(a, 1);
  const std::uint64_t ib = t.intern(b, 1);
  EXPECT_EQ(t.evictions(), 0u);
  const std::uint64_t ic = t.intern(c, 1);
  EXPECT_NE(ic, 0u);                 // id still issued (content hash)
  EXPECT_EQ(t.intern(c, 1), ic);     // and stable on re-intern
  EXPECT_EQ(t.size(), 2u);           // frames were not admitted
  EXPECT_TRUE(t.lookup(ic).empty());
  EXPECT_EQ(t.evictions(), 2u);      // each turned-away intern is counted
  // Retained entries are unaffected by the bound.
  EXPECT_EQ(t.lookup(ia).size(), 1u);
  EXPECT_EQ(t.lookup(ib).size(), 1u);
}

// ---- symbolization rendering (export-time helpers, always compiled) --------

TEST(Symbolize, UnresolvablePcRendersAsHexAddress) {
  // No symbol lives at 0x1000, so dladdr fails and the frame renders as the
  // raw address — the stable fallback the exporters rely on.
  const unwind::Frame f = unwind::symbolize(reinterpret_cast<void*>(0x1000));
  EXPECT_TRUE(f.symbol.empty());
  EXPECT_EQ(unwind::frame_to_string(f), "0x1000");
}

TEST(Symbolize, SiteNameSentinels) {
  EXPECT_EQ(unwind::site_name(0), "(no stack)");
  // An id the global table has never seen behaves like an evicted one: the
  // frames are simply not there.
  EXPECT_EQ(unwind::site_name(0xdeadbeefcafef00dull), "(evicted)");
}

// ---- throw capture ----------------------------------------------------------

TEST_F(ProvenanceTest, UnarmedThrowsAreNotCaptured) {
  if (!unwind::available()) GTEST_SKIP() << "provenance compiled out";
  ASSERT_FALSE(unwind::capture_armed());
  const std::uint64_t before = unwind::throws_captured();
  try {
    throw std::runtime_error("unarmed");
  } catch (const std::runtime_error&) {
    EXPECT_EQ(unwind::current_throw_stack(), 0u);
  }
  EXPECT_EQ(unwind::throws_captured(), before);
}

TEST_F(ProvenanceTest, ArmedThrowCapturesRecordAndInternsStack) {
  if (!unwind::available()) GTEST_SKIP() << "provenance compiled out";
  unwind::ScopedArm arm;
  ASSERT_TRUE(unwind::capture_armed());
  const std::uint64_t before = unwind::throws_captured();
  std::uint64_t stack = 0, serial = 0;
  try {
    throw std::runtime_error("armed");
  } catch (const std::runtime_error&) {
    stack = unwind::current_throw_stack(&serial);
  }
  EXPECT_EQ(unwind::throws_captured(), before + 1);
  ASSERT_NE(stack, 0u);
  EXPECT_NE(serial, 0u);
  const unwind::ThrowRecord* rec = unwind::last_throw();
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(*rec->type, typeid(std::runtime_error));
  EXPECT_GT(rec->depth, 0u);
  // The captured stack is in the global table and symbolizes to something.
  EXPECT_FALSE(unwind::global_stack_table().lookup(stack).empty());
  const std::vector<std::string> frames = unwind::symbolize_stack(stack);
  ASSERT_FALSE(frames.empty());
  const std::string site = unwind::site_name(stack);
  EXPECT_NE(site, "(no stack)");
  EXPECT_NE(site, "(evicted)");
}

TEST_F(ProvenanceTest, SameSiteThrowsInternToOneStackId) {
  if (!unwind::available()) GTEST_SKIP() << "provenance compiled out";
  unwind::ScopedArm arm;
  auto throw_here = [] {
    std::uint64_t stack = 0;
    try {
      throw std::runtime_error("same site");
    } catch (const std::runtime_error&) {
      stack = unwind::current_throw_stack();
    }
    return stack;
  };
  // Both throws must pass through one call site: the captured stack is the
  // whole calling context, so distinct call sites intern distinct stacks.
  std::uint64_t ids[2] = {0, 0};
  for (int i = 0; i < 2; ++i) ids[i] = throw_here();
  ASSERT_NE(ids[0], 0u);
  EXPECT_EQ(ids[0], ids[1]);
}

TEST_F(ProvenanceTest, StaleRecordRejectedByTypeMatch) {
  if (!unwind::available()) GTEST_SKIP() << "provenance compiled out";
  {
    unwind::ScopedArm arm;
    try {
      throw std::runtime_error("fills the slot");
    } catch (const std::runtime_error&) {
    }
  }
  // The slot still holds the runtime_error record; an unarmed throw of a
  // different type must not inherit it.
  try {
    throw std::logic_error("unarmed, different type");
  } catch (const std::logic_error&) {
    EXPECT_EQ(unwind::current_throw_stack(), 0u);
  }
  // Outside any handler there is no in-flight exception to match against.
  EXPECT_EQ(unwind::current_throw_stack(), 0u);
}

// ---- campaign integration ---------------------------------------------------

TEST_F(ProvenanceTest, CampaignAttachesThrowStacksToMarks) {
  if (!unwind::available()) GTEST_SKIP() << "provenance compiled out";
  detect::Campaign c = provenance_campaign(synthetic::workload);
  ASSERT_TRUE(c.provenance);
  std::size_t with_stack = 0;
  std::set<std::uint64_t> sites;
  for (const auto& run : c.runs)
    for (const auto& mark : run.marks)
      if (mark.throw_stack != 0) {
        ++with_stack;
        sites.insert(mark.throw_stack);
      }
  EXPECT_GT(with_stack, 0u);
  // Injected exceptions all originate at the single injection site, and the
  // subjects' organic BankError throws add their own; either way every id
  // must symbolize to a concrete site.
  for (std::uint64_t id : sites) {
    const std::string site = unwind::site_name(id);
    EXPECT_NE(site, "(no stack)");
  }
}

TEST_F(ProvenanceTest, EscapingExceptionsCarryTheirThrowStack) {
  if (!unwind::available()) GTEST_SKIP() << "provenance compiled out";
  detect::Campaign c = provenance_campaign(synthetic::workload);
  std::size_t escaped = 0, escaped_with_stack = 0;
  for (const auto& run : c.runs) {
    escaped += run.escaped;
    escaped_with_stack += run.escaped && run.escape_stack != 0;
  }
  ASSERT_GT(escaped, 0u);  // synthetic::workload lets injections escape
  EXPECT_EQ(escaped_with_stack, escaped);
  // Runs that did not escape must not carry an escape stack.
  for (const auto& run : c.runs) {
    if (!run.escaped) {
      EXPECT_EQ(run.escape_stack, 0u);
    }
  }
}

TEST_F(ProvenanceTest, ExceptionsThrownCountedWithoutProvenance) {
  // The exceptions_thrown counter is episode-based bookkeeping in the
  // runtime, independent of the interposer — it works on every build.
  detect::Campaign c = detect::Experiment(synthetic::workload).run();
  EXPECT_FALSE(c.provenance);
  EXPECT_GT(c.stats.exceptions_thrown, 0u);
  // Every run whose exception passed at least one wrapped frame records an
  // episode.  (Injections with no enclosing wrapped catch — constructor
  // entries at the top level — escape without one, so the injection count
  // itself is not a lower bound.)
  std::uint64_t runs_with_marks = 0;
  for (const auto& run : c.runs) runs_with_marks += !run.marks.empty();
  EXPECT_GE(c.stats.exceptions_thrown, runs_with_marks);
  for (const auto& run : c.runs)
    for (const auto& mark : run.marks) EXPECT_EQ(mark.throw_stack, 0u);
}

TEST_F(ProvenanceTest, ProvenanceOffReportsStayByteIdentical) {
  // A campaign without provenance must serialize exactly as it did before
  // the subsystem existed: no "exception_provenance" section, no stray keys.
  detect::Campaign c = detect::Experiment(synthetic::workload).run();
  const std::string doc = report::campaign_json(c);
  EXPECT_EQ(doc.find("exception_provenance"), std::string::npos);
  EXPECT_EQ(doc.find("throw_stack"), std::string::npos);
  EXPECT_EQ(report::json_parse(doc).dump(), doc);
}

TEST_F(ProvenanceTest, ExceptionProvenanceJsonSchema) {
  if (!unwind::available()) GTEST_SKIP() << "provenance compiled out";
  detect::Campaign c = provenance_campaign(synthetic::workload);
  const std::string doc = report::campaign_json(c);
  const report::JsonValue root = report::json_parse(doc);
  EXPECT_EQ(root.dump(), doc);  // round-trips through the parser
  const report::JsonValue& prov = root.at("exception_provenance");
  ASSERT_TRUE(prov.is_object());
  EXPECT_GT(prov.at("exceptions_thrown").as_int(), 0);
  EXPECT_GT(prov.at("unique_throw_sites").as_int(), 0);
  EXPECT_TRUE(prov.at("stacks_interned").is_number());
  EXPECT_TRUE(prov.at("stack_evictions").is_number());
  const report::JsonValue& methods = prov.at("methods");
  ASSERT_TRUE(methods.is_array());
  ASSERT_FALSE(methods.array.empty());
  std::int64_t total = 0;
  for (const report::JsonValue& m : methods.array) {
    EXPECT_TRUE(m.at("method").is_string());
    const report::JsonValue& sites = m.at("sites");
    ASSERT_TRUE(sites.is_array());
    ASSERT_FALSE(sites.array.empty());
    for (const report::JsonValue& s : sites.array) {
      EXPECT_TRUE(s.at("site").is_string());
      EXPECT_GT(s.at("count").as_int(), 0);
      EXPECT_TRUE(s.at("masked").is_number());
      EXPECT_TRUE(s.at("escaped").is_number());
      EXPECT_TRUE(s.at("exceptions").is_array());
      EXPECT_TRUE(s.at("stack").is_array());
      total += s.at("count").as_int();
    }
  }
  EXPECT_GT(total, 0);
  const report::JsonValue& escapes = prov.at("escapes");
  ASSERT_TRUE(escapes.is_array());
  ASSERT_FALSE(escapes.array.empty());  // synthetic lets injections escape
  for (const report::JsonValue& e : escapes.array) {
    EXPECT_TRUE(e.at("site").is_string());
    EXPECT_GT(e.at("count").as_int(), 0);
  }
}

TEST_F(ProvenanceTest, ProvenanceJsonNamesARealThrowSite) {
  if (!unwind::available()) GTEST_SKIP() << "provenance compiled out";
  detect::Campaign c = provenance_campaign(synthetic::workload);
  const std::string doc = report::provenance_json(c);
  const report::JsonValue root = report::json_parse(doc);
  // -rdynamic puts the test binary's own symbols in .dynsym, so at least
  // one site must symbolize into the instrumentation entry path rather than
  // a bare hex address.
  bool named = false;
  for (const report::JsonValue& m : root.at("methods").array)
    for (const report::JsonValue& s : m.at("sites").array)
      named |= s.at("site").string.rfind("0x", 0) != 0;
  EXPECT_TRUE(named) << doc;
}

// ---- frame budget -----------------------------------------------------------

// An instrumented call is one frame, its method's (weave/invoke.hpp): no
// throw stack a campaign captures may hold a frame of the wrapper engine's
// entry path, whose every frame each injected exception would unwind.
TEST_F(ProvenanceTest, InjectedThrowStacksHoldNoEngineFrames) {
  if (!unwind::available()) GTEST_SKIP() << "provenance compiled out";
  const detect::Campaign c = provenance_campaign(budget_subject::program);
  std::set<std::uint64_t> stacks;
  for (const auto& run : c.runs) {
    if (run.escape_stack != 0) stacks.insert(run.escape_stack);
    for (const auto& mark : run.marks)
      if (mark.throw_stack != 0) stacks.insert(mark.throw_stack);
  }
  ASSERT_FALSE(stacks.empty());
  const char* const engine[] = {
      "fatomic::weave::invoke<",
      "fatomic::weave::invoke_with<",
      "fatomic::weave::invoke_static<",
      "fatomic::weave::detail::dispatch<",
      "fatomic::weave::detail::injected_call<",
      "fatomic::weave::detail::fire_injection_points(",
  };
  bool two_levels = false;  // some stack names both methods
  for (const std::uint64_t id : stacks) {
    const std::vector<std::string> frames =
        unwind::symbolize_stack(id, unwind::kMaxFrames);
    bool outer = false, inner = false;
    for (const std::string& frame : frames) {
      for (const char* name : engine)
        EXPECT_EQ(frame.find(name), std::string::npos)
            << "engine frame " << frame << " in stack " << id;
      outer |= frame.find("budget_subject::Pair::outer(") != std::string::npos;
      inner |= frame.find("budget_subject::Pair::inner(") != std::string::npos;
    }
    two_levels |= outer && inner;
  }
  EXPECT_TRUE(two_levels) << "no captured stack crosses outer and inner";
}

// ---- metrics ----------------------------------------------------------------

TEST_F(ProvenanceTest, MetricsExposeExceptionAndProvenanceCounters) {
  detect::Campaign c = provenance_campaign(synthetic::workload);
  const trace::MetricsRegistry reg = trace::campaign_metrics(c);
  EXPECT_EQ(reg.counter("stats.exceptions_thrown"), c.stats.exceptions_thrown);
  if (!unwind::available()) return;  // provenance.* gated on capture
  EXPECT_GT(reg.counter("provenance.unique_throw_sites"), 0u);
  EXPECT_GT(reg.counter("provenance.stacks_interned"), 0u);
  EXPECT_EQ(reg.counter("provenance.stack_evictions"),
            unwind::global_stack_table().evictions());
}

// ---- tracing + determinism --------------------------------------------------

TEST_F(ProvenanceTest, TraceRecordsThrowSiteEvents) {
  if (!unwind::available()) GTEST_SKIP() << "provenance compiled out";
  detect::Campaign c = provenance_campaign(synthetic::workload, 1, true);
  ASSERT_TRUE(c.trace.enabled);
  std::size_t throw_events = 0;
  for (const trace::Event& e : c.trace.events)
    if (e.kind == trace::EventKind::ThrowSite) {
      ++throw_events;
      EXPECT_NE(e.value, 0u);       // the interned stack id
      EXPECT_FALSE(e.detail.empty());  // the exception type
    }
  EXPECT_GT(throw_events, 0u);
}

// The tentpole determinism guarantee extends to provenance: stack ids are
// content hashes, so the merged stream with throw-site events is identical
// for jobs=1 and jobs=8.
TEST_F(ProvenanceTest, CanonicalStreamIdenticalAcrossJobsWithProvenance) {
  if (!unwind::available()) GTEST_SKIP() << "provenance compiled out";
  detect::Campaign seq = provenance_campaign(synthetic::workload, 1, true);
  detect::Campaign par = provenance_campaign(synthetic::workload, 8, true);
  ASSERT_FALSE(seq.trace.events.empty());
  EXPECT_EQ(trace::canonical_stream(seq.trace),
            trace::canonical_stream(par.trace));
}

TEST_F(ProvenanceTest, TraceSummaryListsThrowSites) {
  if (!unwind::available()) GTEST_SKIP() << "provenance compiled out";
  detect::Campaign c = provenance_campaign(synthetic::workload, 1, true);
  const std::string summary = trace::trace_summary(c.trace);
  EXPECT_NE(summary.find("throw sites:"), std::string::npos);
}

// ---- kill switch ------------------------------------------------------------

TEST_F(ProvenanceTest, DisabledBuildDegradesGracefully) {
  if (unwind::available())
    GTEST_SKIP() << "capture is live in this build; stub paths not reachable";
  // Everything must still work, just without stacks: campaigns run, the
  // provenance flag stays off, and reports match the pre-provenance format.
  fatomic::Config config;
  config.provenance(true);
  detect::Campaign c = detect::Experiment(synthetic::workload, config).run();
  EXPECT_FALSE(c.provenance);
  EXPECT_EQ(unwind::throws_captured(), 0u);
  EXPECT_EQ(unwind::last_throw(), nullptr);
  for (const auto& run : c.runs) {
    EXPECT_EQ(run.escape_stack, 0u);
    for (const auto& mark : run.marks) EXPECT_EQ(mark.throw_stack, 0u);
  }
  EXPECT_EQ(report::campaign_json(c).find("exception_provenance"),
            std::string::npos);
}
