// fatomic_cli — command-line driver over the subject applications: run
// detection campaigns, print the paper-style reports, emit JSON/CSV/dot,
// verify masking, and export structured traces.  The programmatic stand-in
// for the paper's web interface.
//
// Usage:
//   fatomic_cli --list
//   fatomic_cli --app LinkedList [--details] [--json] [--dot] [--suggest]
//   fatomic_cli --app HashedMap --mask-verify
//   fatomic_cli --app LinkedList --trace-out trace.json --trace-summary
//   fatomic_cli --all [--language C++|Java] [--csv] [--trace-out trace.json]
//   fatomic_cli --all --out-dir artifacts/
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fatomic/fatomic.hpp"
#include "subjects/apps/apps.hpp"

namespace detect = fatomic::detect;
namespace recovery = fatomic::recovery;
namespace report = fatomic::report;
namespace trace = fatomic::trace;

namespace {

struct Args {
  std::string app;
  std::string language;
  std::vector<std::string> exception_free;
  std::vector<std::string> no_wrap;
  unsigned jobs = 1;
  bool list = false;
  bool all = false;
  bool details = false;
  bool json = false;
  bool dot = false;
  bool csv = false;
  bool suggest = false;
  bool mask_verify = false;
  bool diffs = false;
  bool analyze = false;
  bool lint = false;
  bool graph_check = false;
  bool alias_check = false;
  /// --precision-floor P,W: the proven-atomic and partial-plan floors.
  std::optional<std::pair<std::size_t, std::size_t>> precision_floor;
  bool prune_static = false;
  bool cross_check = false;
  bool write_sets = false;
  bool mask_partial = false;
  bool validate_checkpoints = false;
  bool provenance = false;
  std::string policy_file;
  std::string derive_policies_out;
  /// Parsed --policy-file table (loaded once in main, after parse()).
  std::shared_ptr<const fatomic::recovery::PolicyTable> policies;
  std::string trace_out;
  bool trace_summary = false;
  bool metrics = false;
  std::string out_dir;
  bool help = false;

  /// Any trace exporter requested — flips Config::tracing on.
  bool want_trace() const {
    return !trace_out.empty() || trace_summary || metrics;
  }
};

int usage(int code) {
  std::cout <<
      "fatomic_cli -- detection/masking campaigns over the subject apps\n"
      "\n"
      "selection:\n"
      "  --list                 list the available applications\n"
      "  --app NAME             run a campaign for one application\n"
      "  --all                  run campaigns for every application\n"
      "  --language L           with --all: restrict to suite 'C++'/'Java'\n"
      "\n"
      "detect (injection campaign):\n"
      "  --jobs N               run each campaign's injector runs on N\n"
      "                         worker threads (0 = one per hardware\n"
      "                         thread); results are identical to --jobs 1\n"
      "  --prune-static         skip injections at thresholds whose stacks\n"
      "                         are statically proven failure atomic\n"
      "  --cross-check          run full and pruned campaigns, verify the\n"
      "                         classifications are identical (exit != 0\n"
      "                         on divergence); with --all: gate over every\n"
      "                         subject family including hidden demos\n"
      "  --diffs                attach a graph-diff example to each\n"
      "                         non-atomic method in --details output\n"
      "  --exception-free M     declare method M exception-free (repeatable)\n"
      "\n"
      "analyze (static passes):\n"
      "  --analyze              static effect analysis of the subject\n"
      "                         sources (per-method verdict table; with\n"
      "                         --json: static_analysis report section)\n"
      "  --lint                 cross-check observed exception types against\n"
      "                         the declared FAT_THROWS sets (exit != 0 on\n"
      "                         undeclared exceptions; works with --all);\n"
      "                         also lints campaign-unreached methods of\n"
      "                         observed classes against the Pass 4 static\n"
      "                         exception-flow sets\n"
      "  --graph-check          static-vs-dynamic soundness gate: every call\n"
      "                         edge and exception type the campaign\n"
      "                         observed must be predicted by the static\n"
      "                         call graph (exit 2 on unsoundness; with\n"
      "                         --all: every family plus the hidden demos)\n"
      "  --alias-check          alias-analysis soundness gate: record each\n"
      "                         non-atomic mark's mutation footprint and\n"
      "                         verify every footprint path on a\n"
      "                         partial-plan method is covered by its\n"
      "                         static write set (exit 2 on a missed\n"
      "                         write; with --all: every family plus the\n"
      "                         hidden demos)\n"
      "  --precision-floor P,W  static-only regression gate: exit 2 unless\n"
      "                         at least P methods are proven atomic and at\n"
      "                         least W get a partial checkpoint plan\n"
      "  --write-sets           print the write-set analysis' per-method\n"
      "                         checkpoint plans (usable without --app)\n"
      "\n"
      "mask (correction + verification):\n"
      "  --mask-verify          mask pure methods and re-verify (exit != 0\n"
      "                         when non-atomic methods remain)\n"
      "  --mask-partial         with --mask-verify: field-granular\n"
      "                         checkpoints from the write-set analysis\n"
      "  --validate-checkpoints shadow every partial checkpoint with a full\n"
      "                         one and compare after rollback (exit != 0\n"
      "                         on any divergence)\n"
      "  --no-wrap M            exclude method M from masking (repeatable;\n"
      "                         unknown names are warned about)\n"
      "\n"
      "recovery (evidence-driven policy engine, DESIGN.md 14):\n"
      "  --policy-file FILE     install a per-method RecoveryPolicy table\n"
      "                         (JSON) for masked execution: with\n"
      "                         --mask-verify, listed methods recover by\n"
      "                         their policy (retry/degrade/early_return/\n"
      "                         rethrow_as) instead of the fixed\n"
      "                         rollback-and-rethrow; parse errors report\n"
      "                         file, line and column\n"
      "  --derive-policies FILE derive a policy table from the static\n"
      "                         report (with --app: weighted by that\n"
      "                         campaign's per-exception-type histograms)\n"
      "                         and write it to FILE with per-method\n"
      "                         evidence on stdout\n"
      "\n"
      "report (exporters):\n"
      "  --details              per-method classification table\n"
      "  --json                 classification + campaign as JSON\n"
      "  --dot                  dynamic call graph as Graphviz dot\n"
      "  --csv                  with --all: CSV summary\n"
      "  --suggest              suggest exception-free declarations\n"
      "  --out-dir DIR          write every requested exporter's output to\n"
      "                         files under DIR instead of stdout\n"
      "\n"
      "trace (campaign observability; any of these enables tracing):\n"
      "  --trace-out FILE       Chrome/Perfetto trace_event JSON of the\n"
      "                         campaign (with --all: one combined file,\n"
      "                         one pid per application)\n"
      "  --trace-summary        per-event-kind timing table on stdout\n"
      "  --metrics              named counters and latency histograms\n"
      "                         derived from the campaign and its trace\n"
      "  --throw-stacks         capture a backtrace at every campaign throw\n"
      "                         (__cxa_throw interposition): per-method\n"
      "                         throw-site histogram on stdout, an\n"
      "                         'exception_provenance' section in --json\n"
      "                         campaign output, symbolized stacks in\n"
      "                         --trace-out events; with --cross-check:\n"
      "                         verify classifications are bit-identical\n"
      "                         with and without capture\n"
      "\n"
      "exit codes:\n"
      "  0  success: campaigns ran, every requested gate passed\n"
      "  1  usage or runtime error: bad flags, unknown app, unreadable or\n"
      "     malformed --policy-file, I/O failure\n"
      "  2  divergence or gate failure: --cross-check, --graph-check,\n"
      "     --alias-check, --precision-floor, remaining non-atomic methods\n"
      "     under --mask-verify, checkpoint-validator divergence\n"
      "  3  lint findings: --lint found undeclared exception types\n";
  return code;
}

/// Parses all of [first, last) as a count.  from_chars into an unsigned
/// takes no sign and reports overflow, so "-1" and out-of-range values are
/// refused, not wrapped.
template <class N>
bool parse_count(const char* first, const char* last, N& out) {
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--list") {
      args.list = true;
    } else if (a == "--all") {
      args.all = true;
    } else if (a == "--details") {
      args.details = true;
    } else if (a == "--json") {
      args.json = true;
    } else if (a == "--dot") {
      args.dot = true;
    } else if (a == "--csv") {
      args.csv = true;
    } else if (a == "--suggest") {
      args.suggest = true;
    } else if (a == "--diffs") {
      args.diffs = true;
    } else if (a == "--mask-verify") {
      args.mask_verify = true;
    } else if (a == "--analyze") {
      args.analyze = true;
    } else if (a == "--lint") {
      args.lint = true;
    } else if (a == "--graph-check") {
      args.graph_check = true;
    } else if (a == "--alias-check") {
      args.alias_check = true;
    } else if (a == "--precision-floor") {
      const char* v = value();
      if (!v) return false;
      const char* end = v + std::strlen(v);
      const char* comma = std::find(v, end, ',');
      std::pair<std::size_t, std::size_t> floors;
      if (comma == end || !parse_count(v, comma, floors.first) ||
          !parse_count(comma + 1, end, floors.second)) {
        std::cerr << "--precision-floor expects P,W (two counts), got '" << v
                  << "'\n";
        return false;
      }
      args.precision_floor = floors;
    } else if (a == "--prune-static") {
      args.prune_static = true;
    } else if (a == "--cross-check") {
      args.cross_check = true;
    } else if (a == "--write-sets") {
      args.write_sets = true;
    } else if (a == "--mask-partial") {
      args.mask_partial = true;
    } else if (a == "--validate-checkpoints") {
      args.validate_checkpoints = true;
    } else if (a == "--throw-stacks") {
      args.provenance = true;
    } else if (a == "--trace-summary") {
      args.trace_summary = true;
    } else if (a == "--metrics") {
      args.metrics = true;
    } else if (a == "--help" || a == "-h") {
      args.help = true;
    } else if (a == "--app") {
      const char* v = value();
      if (!v) return false;
      args.app = v;
    } else if (a == "--language") {
      const char* v = value();
      if (!v) return false;
      args.language = v;
      if (args.language != "C++" && args.language != "Java") {
        std::cerr << "--language expects 'C++' or 'Java', got '" << v
                  << "'\n";
        return false;
      }
    } else if (a == "--policy-file") {
      const char* v = value();
      if (!v) return false;
      args.policy_file = v;
    } else if (a == "--derive-policies") {
      const char* v = value();
      if (!v) return false;
      args.derive_policies_out = v;
    } else if (a == "--trace-out") {
      const char* v = value();
      if (!v) return false;
      args.trace_out = v;
    } else if (a == "--out-dir") {
      const char* v = value();
      if (!v) return false;
      args.out_dir = v;
    } else if (a == "--jobs") {
      const char* v = value();
      if (!v) return false;
      if (!parse_count(v, v + std::strlen(v), args.jobs)) {
        std::cerr << "--jobs expects a number from 0 to "
                  << std::numeric_limits<unsigned>::max() << ", got '" << v
                  << "'\n";
        return false;
      }
    } else if (a == "--exception-free") {
      const char* v = value();
      if (!v) return false;
      args.exception_free.push_back(v);
    } else if (a == "--no-wrap") {
      const char* v = value();
      if (!v) return false;
      args.no_wrap.push_back(v);
    } else {
      std::cerr << "unknown option: " << a << '\n';
      return false;
    }
  }
  return true;
}

/// The unified Config every pipeline entry point below consumes.
fatomic::Config make_config(const Args& args,
                            const std::set<std::string>* prune = nullptr) {
  fatomic::Config cfg;
  cfg.jobs(args.jobs)
      .record_diffs(args.diffs)
      .record_footprints(args.alias_check)
      .tracing(args.want_trace())
      .provenance(args.provenance)
      .validate_checkpoints(args.validate_checkpoints);
  if (prune != nullptr) cfg.prune_atomic(*prune);
  if (args.policies) cfg.recovery(args.policies);
  for (const auto& m : args.exception_free) cfg.exception_free(m);
  for (const auto& m : args.no_wrap) cfg.no_wrap(m);
  return cfg;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    std::cerr << "error: cannot write " << path << '\n';
    return false;
  }
  os << content;
  return true;
}

/// Resolves an exporter file name: relative names land under --out-dir when
/// one was given.
std::string out_path(const Args& args, const std::string& name) {
  if (args.out_dir.empty() || std::filesystem::path(name).is_absolute())
    return name;
  return (std::filesystem::path(args.out_dir) / name).string();
}

/// Routes one exporter artifact: to a file under --out-dir when set (named
/// `filename`), to stdout otherwise.  False when the file cannot be written.
bool emit(const Args& args, const std::string& filename,
          const std::string& content) {
  if (args.out_dir.empty()) {
    std::cout << '\n' << content;
    if (!content.empty() && content.back() != '\n') std::cout << '\n';
    return true;
  }
  if (!write_file(out_path(args, filename), content)) return false;
  std::cout << "wrote " << out_path(args, filename) << '\n';
  return true;
}

report::AppResult run_campaign(const subjects::apps::App& app,
                               const fatomic::Config& config) {
  detect::Experiment exp(app.program, config);
  report::AppResult r;
  r.name = app.name;
  r.language = app.language;
  r.campaign = exp.run();
  r.classification = detect::classify(r.campaign, config.policy());
  return r;
}

/// Subject source tree fed to the static analyzer (baked in at build time).
std::string subject_root() {
  return std::string(FATOMIC_SOURCE_DIR) + "/subjects";
}

/// The injector's generic runtime exception names (E_{k+1}..E_n), the seed
/// set of both exception-flow passes.
std::set<std::string> runtime_exception_names() {
  std::set<std::string> names;
  for (const auto& spec : fatomic::weave::Runtime::instance().runtime_exceptions())
    names.insert(spec.type_name);
  return names;
}

int print_lint(const std::string& app_name, const detect::Campaign& campaign,
               const fatomic::analyze::StaticReport& sreport) {
  // Dynamic lint (observed marks vs. declared sets), then the Pass 4
  // static lint for methods of observed classes the campaign never reached
  // — the dynamic graph's blind spot.
  auto findings = fatomic::analyze::lint(campaign);
  const auto uncovered = fatomic::analyze::lint_static(
      campaign, sreport.model, sreport.graph, runtime_exception_names());
  findings.insert(findings.end(), uncovered.begin(), uncovered.end());
  if (findings.empty()) {
    std::cout << app_name << ": lint clean (every observed exception type "
                 "is declared; uncovered methods statically clean)\n";
    return 0;
  }
  for (const auto& f : findings)
    std::cout << app_name << ": undeclared exception " << f.exception_type
              << (f.injected_at == "(static)"
                      ? std::string(" may escape through ")
                      : std::string(" escaped through "))
              << f.method << " (injection point " << f.injection_point
              << " at " << f.injected_at << ")\n";
  return 3;
}

int print_graph_check(const std::string& app_name,
                      const detect::Campaign& campaign,
                      const fatomic::analyze::StaticCallGraph& graph) {
  const auto res = fatomic::analyze::graph_check(campaign, graph);
  if (res.ok()) {
    std::cout << app_name << ": graph-check sound (" << res.edges_checked
              << " call edges, " << res.types_checked
              << " exception types covered)\n";
    return 0;
  }
  for (const auto& v : res.violations)
    std::cout << app_name << ": static graph missed " << v.kind << ' '
              << v.node << " -> " << v.detail << '\n';
  return 2;
}

int print_alias_check(const std::string& app_name,
                      const detect::Campaign& campaign,
                      const fatomic::analyze::WriteSetAnalysis& write_sets) {
  const auto res = fatomic::analyze::alias_check(campaign, write_sets);
  if (res.ok()) {
    std::cout << app_name << ": alias-check sound (" << res.marks_checked
              << " non-atomic marks, " << res.paths_checked
              << " footprint paths covered)\n";
    return 0;
  }
  for (const auto& v : res.violations)
    std::cout << app_name << ": static write set missed " << v.method
              << " path " << v.path << " (" << v.reason << ")\n";
  return 2;
}

/// Trace/metrics exporters shared by run_one and the per-app --all loop.
/// False when an output file cannot be written.
bool emit_trace_outputs(const Args& args, const report::AppResult& result) {
  if (args.trace_summary)
    std::cout << '\n'
              << result.name << ":\n"
              << trace::trace_summary(result.campaign.trace);
  if (args.metrics) {
    const auto registry = trace::campaign_metrics(result.campaign);
    if (args.out_dir.empty())
      std::cout << '\n' << result.name << ":\n" << registry.to_text();
    else
      return emit(args, result.name + "_metrics.json", registry.to_json());
  }
  return true;
}

/// Per-method throw-site histogram on stdout (--throw-stacks).
void print_provenance(const report::AppResult& result) {
  if (!result.campaign.provenance) {
    std::cout << '\n'
              << result.name
              << ": throw-stack capture unavailable in this build\n";
    return;
  }
  struct SiteAgg {
    std::uint64_t count = 0;
    std::uint64_t escaped = 0;
  };
  // Keyed by the rendered site name: distinct stack ids that resolve to the
  // same throw site (equal innermost subject frame, different callers) are
  // one row in a human-facing histogram.
  std::map<std::string, std::map<std::string, SiteAgg>> methods;
  std::map<std::string, std::uint64_t> escapes;
  for (const auto& run : result.campaign.runs) {
    for (const auto& mark : run.marks) {
      if (mark.throw_stack == 0) continue;
      SiteAgg& agg = methods[mark.method->qualified_name()]
                            [fatomic::unwind::site_name(mark.throw_stack)];
      ++agg.count;
      if (run.escaped) ++agg.escaped;
    }
    if (run.escape_stack != 0)
      ++escapes[fatomic::unwind::site_name(run.escape_stack)];
  }
  std::cout << '\n'
            << result.name << " throw sites ("
            << result.campaign.stats.exceptions_thrown
            << " exceptions observed):\n";
  for (const auto& [method, site_map] : methods) {
    std::cout << "  " << method << '\n';
    for (const auto& [site, agg] : site_map)
      std::cout << "    " << std::left << std::setw(56) << site << std::right
                << std::setw(8) << agg.count
                << (agg.escaped != 0 ? "  (escaped)" : "") << '\n';
  }
  if (!escapes.empty()) {
    std::cout << "  (escaped the program)\n";
    for (const auto& [site, count] : escapes)
      std::cout << "    " << std::left << std::setw(56) << site << std::right
                << std::setw(8) << count << '\n';
  }
}

/// Observer-effect gate (--cross-check with --throw-stacks): arming the
/// __cxa_throw interposer must not change what the campaign concludes — the
/// same program classifies bit-identically with and without capture.
int provenance_parity_check(const subjects::apps::App& app, const Args& args) {
  fatomic::Config off_cfg = make_config(args);
  off_cfg.provenance(false);
  fatomic::Config on_cfg = make_config(args);
  on_cfg.provenance(true);
  const auto off = run_campaign(app, off_cfg);
  const auto on = run_campaign(app, on_cfg);
  const bool identical = report::classification_json(off.classification) ==
                         report::classification_json(on.classification);
  std::set<std::uint64_t> sites;
  for (const auto& run : on.campaign.runs) {
    for (const auto& mark : run.marks)
      if (mark.throw_stack != 0) sites.insert(mark.throw_stack);
    if (run.escape_stack != 0) sites.insert(run.escape_stack);
  }
  std::cout << app.name << ": provenance cross-check "
            << (identical ? "identical" : "DIVERGED") << " (" << sites.size()
            << " throw sites captured)\n";
  return identical ? 0 : 2;
}

int run_one(const Args& args) {
  const auto& app = subjects::apps::app(args.app);

  const bool need_static = args.analyze || args.prune_static ||
                           args.cross_check || args.write_sets ||
                           args.mask_partial || args.lint ||
                           args.graph_check || args.alias_check ||
                           !args.derive_policies_out.empty();
  fatomic::analyze::StaticReport sreport;
  if (need_static) sreport = fatomic::analyze::analyze_sources(subject_root());

  if (args.cross_check) {
    const auto cc = fatomic::analyze::cross_check(
        app.program, sreport.prune_set(), args.jobs);
    std::cout << app.name << ": cross-check "
              << (cc.identical ? "identical" : "DIVERGED") << ", "
              << cc.runs_saved << " of " << cc.full.runs.size()
              << " injector runs pruned\n";
    if (!cc.identical) {
      std::cout << "  first mismatch: " << cc.mismatch << '\n';
      return 2;
    }
    return args.provenance ? provenance_parity_check(app, args) : 0;
  }

  const std::set<std::string> prune =
      args.prune_static ? sreport.prune_set() : std::set<std::string>{};
  fatomic::Config config =
      make_config(args, args.prune_static ? &prune : nullptr);
  report::AppResult result = run_campaign(app, config);
  const auto& cls = result.classification;

  std::cout << app.name << " (" << app.language << "): "
            << result.campaign.injections() << " injections, "
            << cls.count_methods(detect::MethodClass::Atomic) << " atomic / "
            << cls.count_methods(detect::MethodClass::ConditionalNonAtomic)
            << " conditional / "
            << cls.count_methods(detect::MethodClass::PureNonAtomic)
            << " pure non-atomic methods\n";
  if (args.prune_static)
    std::cout << "static pruning: " << result.campaign.pruned_runs
              << " injector runs skipped (" << sreport.proven_count() << " of "
              << sreport.method_count() << " methods statically proven)\n";
  if (args.analyze) std::cout << '\n' << sreport.to_text();
  if (args.write_sets) std::cout << '\n' << sreport.write_sets.to_text();

  // An unwritable output file fails the command (exit 1) unless a gate
  // failure already decides its status.
  bool written = true;
  if (args.details) std::cout << '\n' << report::method_details(result);
  if (args.json) {
    written &= emit(args, app.name + "_classification.json",
                    report::classification_json(cls));
    if (args.analyze)
      written &= emit(args, app.name + "_campaign.json",
                      report::campaign_json(result.campaign, cls, sreport));
    else if (!config.policy().no_wrap.empty() ||
             !config.policy().exception_free.empty())
      written &= emit(args, app.name + "_campaign.json",
                      report::campaign_json(result.campaign, config.policy()));
    else
      written &= emit(args, app.name + "_campaign.json",
                      report::campaign_json(result.campaign));
  }
  if (args.dot) {
    auto graph = detect::CallGraph::from(result.campaign);
    written &= emit(args, app.name + "_callgraph.dot", graph.to_dot(&cls));
  }
  if (!args.trace_out.empty()) {
    const std::string path = out_path(args, args.trace_out);
    if (write_file(path,
                   trace::chrome_trace_json(result.campaign.trace, app.name)))
      std::cout << "wrote " << path << " (" << result.campaign.trace.events.size()
                << " events)\n";
    else
      written = false;
  }
  written &= emit_trace_outputs(args, result);
  if (args.provenance) print_provenance(result);
  if (!args.derive_policies_out.empty()) {
    // Evidence-weighted derivation: the campaign just run supplies the
    // per-exception-type histograms (DESIGN.md 14).
    const auto derived =
        recovery::derive_policy_table(sreport, &result.campaign);
    const std::string path = out_path(args, args.derive_policies_out);
    if (write_file(path, recovery::policy_table_json(*derived.table)))
      std::cout << "wrote " << path << " (" << derived.table->size()
                << " policies)\n";
    else
      written = false;
    for (const auto& [method, why] : derived.evidence)
      std::cout << "  " << method << ": "
                << recovery::to_string(derived.table->find(method)->action)
                << " [" << why << "]\n";
  }
  if (args.suggest) {
    std::cout << "\nexception-free candidates (each fully explains the "
                 "non-atomicity of at least one method):\n";
    for (const auto& site : detect::suggest_exception_free(result.campaign))
      std::cout << "  " << site << '\n';
  }
  if (args.mask_verify) {
    // Verification re-runs every injection point: verify_masked_full honours
    // prune_atomic, so start from the unpruned configuration.
    fatomic::Config verify_config = make_config(args);
    verify_config.mask(fatomic::mask::wrap_pure(cls, config.policy()));
    if (args.mask_partial)
      verify_config.checkpoint_plans(fatomic::mask::make_plans(sreport));
    const auto verified =
        fatomic::mask::verify_masked_full(app.program, verify_config);
    const auto remaining = verified.classification.nonatomic_names();
    std::cout << "\nmask verification: " << remaining.size()
              << " non-atomic methods remain\n";
    for (const auto& name : remaining) std::cout << "  " << name << '\n';
    if (args.mask_partial) {
      const auto& stats = verified.campaign.stats;
      std::cout << "checkpoints: " << stats.partial_checkpoints
                << " partial, " << stats.snapshots_taken << " full ("
                << stats.partial_fallbacks << " fallbacks), "
                << stats.checkpoint_units << " units\n";
    }
    if (args.validate_checkpoints) {
      const auto divergences = verified.campaign.stats.validator_divergences;
      std::cout << "checkpoint validator: " << divergences
                << " divergences\n";
      if (divergences > 0) return 2;
    }
    return std::max(remaining.empty() ? 0 : 2, written ? 0 : 1);
  }
  if (args.validate_checkpoints) {
    // Detection campaigns run the validator too (make_config wires it into
    // the Config) — surface the verdict even without --mask-verify.
    const auto divergences = result.campaign.stats.validator_divergences;
    std::cout << "checkpoint validator: " << divergences << " divergences\n";
    if (divergences > 0) return 2;
  }
  int status = 0;
  if (args.graph_check)
    status = std::max(
        status, print_graph_check(app.name, result.campaign, sreport.graph));
  if (args.alias_check)
    status = std::max(status, print_alias_check(app.name, result.campaign,
                                                sreport.write_sets));
  if (args.lint)
    status = std::max(status, print_lint(app.name, result.campaign, sreport));
  return std::max(status, written ? 0 : 1);
}

int run_all(const Args& args) {
  if (args.cross_check) {
    // Soundness gate: validate the static prune set against every subject
    // family — the Table 1 sweep plus the hidden demos (apps, net).
    const auto sreport = fatomic::analyze::analyze_sources(subject_root());
    const auto prune = sreport.prune_set();
    std::vector<subjects::apps::App> gate = subjects::apps::all_apps();
    gate.push_back(subjects::apps::app("lintDemo"));
    gate.push_back(subjects::apps::app("netDemo"));
    gate.push_back(subjects::apps::app("ServerDemo"));
    int status = 0;
    for (const auto& app : gate) {
      if (!args.language.empty() && app.language != args.language) continue;
      const auto cc =
          fatomic::analyze::cross_check(app.program, prune, args.jobs);
      std::cout << app.name << ": cross-check "
                << (cc.identical ? "identical" : "DIVERGED") << ", "
                << cc.runs_saved << " of " << cc.full.runs.size()
                << " injector runs pruned\n";
      if (!cc.identical) {
        std::cout << "  first mismatch: " << cc.mismatch << '\n';
        status = 2;
      }
      if (args.provenance)
        status = std::max(status, provenance_parity_check(app, args));
    }
    return status;
  }

  const fatomic::Config config = make_config(args);
  fatomic::analyze::StaticReport sreport;
  if (args.lint || args.graph_check || args.alias_check || args.write_sets)
    sreport = fatomic::analyze::analyze_sources(subject_root());
  if (args.write_sets) {
    // Fleet view of Pass 3: per-family plan coverage and ⊤-reason
    // histograms, then the aggregated table precision work is aimed from.
    std::cout << '\n' << sreport.write_sets.fleet_text() << '\n';
  }
  // The soundness/lint gates sweep the hidden demos too — exactly the
  // families whose campaigns exercise lint- and net-specific behaviour.
  std::vector<subjects::apps::App> apps = subjects::apps::all_apps();
  if (args.graph_check || args.alias_check) {
    apps.push_back(subjects::apps::app("lintDemo"));
    apps.push_back(subjects::apps::app("netDemo"));
    apps.push_back(subjects::apps::app("ServerDemo"));
  }
  std::vector<report::AppResult> results;
  std::vector<std::pair<std::string, trace::Trace>> traces;
  int lint_status = 0;
  int graph_status = 0;
  int alias_status = 0;
  std::uint64_t validator_divergences = 0;
  // As in run_one: an unwritable output file fails the command (exit 1).
  bool written = true;
  for (const auto& app : apps) {
    if (!args.language.empty() && app.language != args.language) continue;
    results.push_back(run_campaign(app, config));
    const auto& result = results.back();
    validator_divergences += result.campaign.stats.validator_divergences;
    if (args.graph_check)
      graph_status = std::max(
          graph_status,
          print_graph_check(app.name, result.campaign, sreport.graph));
    if (args.alias_check)
      alias_status = std::max(
          alias_status,
          print_alias_check(app.name, result.campaign, sreport.write_sets));
    if (args.lint)
      lint_status =
          std::max(lint_status, print_lint(app.name, result.campaign, sreport));
    if (!args.trace_out.empty())
      traces.emplace_back(app.name, result.campaign.trace);
    if (args.json && !args.out_dir.empty()) {
      written &= emit(args, app.name + "_classification.json",
                      report::classification_json(result.classification));
      written &= emit(args, app.name + "_campaign.json",
                      report::campaign_json(result.campaign));
    }
    written &= emit_trace_outputs(args, result);
    if (args.provenance) print_provenance(result);
  }
  if (!args.trace_out.empty()) {
    const std::string path = out_path(args, args.trace_out);
    std::size_t events = 0;
    for (const auto& [name, t] : traces) events += t.events.size();
    if (write_file(path, trace::chrome_trace_json(traces)))
      std::cout << "wrote " << path << " (" << traces.size() << " apps, "
                << events << " events)\n";
    else
      written = false;
  }
  if (args.lint || args.graph_check || args.alias_check)
    return std::max(
        {lint_status, graph_status, alias_status, written ? 0 : 1});
  if (args.validate_checkpoints) {
    std::cout << "checkpoint validator: " << validator_divergences
              << " divergences across " << results.size() << " campaigns\n";
    if (validator_divergences > 0) return 2;
  }
  std::cout << report::table1(results) << '\n';
  std::cout << report::figure_methods(results, "method classification")
            << '\n';
  std::cout << report::figure_calls(results, "classification by calls")
            << '\n';
  std::cout << report::figure_classes(results, "class distribution") << '\n';
  if (args.csv)
    written &= emit(args, "all_summary.csv", report::to_csv(results));
  return written ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return usage(1);
  if (args.help || (argc == 1)) return usage(0);
  if (args.list) {
    for (const auto& app : subjects::apps::all_apps())
      std::cout << app.name << " (" << app.language << ")\n";
    return 0;
  }
  try {
    if (!args.out_dir.empty())
      std::filesystem::create_directories(args.out_dir);
    if (!args.policy_file.empty())
      args.policies = std::make_shared<const fatomic::recovery::PolicyTable>(
          recovery::load_policy_file(args.policy_file));
    if (args.all) return run_all(args);
    if (!args.app.empty()) return run_one(args);
    if (!args.derive_policies_out.empty()) {
      // Static-only derivation: base actions from the Pass 1-5 evidence,
      // no campaign histograms to weight overrides.
      const auto sreport = fatomic::analyze::analyze_sources(subject_root());
      const auto derived = recovery::derive_policy_table(sreport, nullptr);
      if (!write_file(args.derive_policies_out,
                      recovery::policy_table_json(*derived.table)))
        return 1;
      std::cout << "wrote " << args.derive_policies_out << " ("
                << derived.table->size() << " policies)\n";
      for (const auto& [method, why] : derived.evidence)
        std::cout << "  " << method << ": "
                  << recovery::to_string(derived.table->find(method)->action)
                  << " [" << why << "]\n";
      return 0;
    }
    if (args.precision_floor) {
      // Static-only regression gate: proven-atomic and partial-plan counts
      // must not fall below the asserted lower bounds.
      const auto [floor_proven, floor_partial] = *args.precision_floor;
      const auto sreport = fatomic::analyze::analyze_sources(subject_root());
      const std::size_t proven = sreport.proven_count();
      const std::size_t partial = sreport.write_sets.partial_count();
      std::cout << "precision: " << proven << " proven atomic (floor "
                << floor_proven << "), " << partial
                << " partial checkpoint plans (floor " << floor_partial
                << ") of " << sreport.method_count() << " methods\n";
      if (proven < floor_proven || partial < floor_partial) {
        std::cout << "precision regression: below asserted floor\n";
        return 2;
      }
      return 0;
    }
    if (args.write_sets) {
      // Static-only mode: no campaign, just the per-method checkpoint plans.
      const auto sreport =
          fatomic::analyze::analyze_sources(subject_root());
      std::cout << sreport.write_sets.to_text();
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage(1);
}
