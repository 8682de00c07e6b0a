// fatomic_cli — command-line driver over the subject applications: run
// detection campaigns, print the paper-style reports, emit JSON/CSV/dot,
// verify masking, and export structured traces.  The programmatic stand-in
// for the paper's web interface.
//
// --app, --all or no selection chooses the apps, and one function runs
// each of them.  Every flag is honoured for every selection or refused
// with exit 1; none is silently ignored.
//
// Usage:
//   fatomic_cli --list [--language C++|Java]
//   fatomic_cli --app LinkedList [--details] [--json] [--dot] [--suggest]
//   fatomic_cli --app HashedMap --mask-verify
//   fatomic_cli --app LinkedList --trace-out trace.json --trace-summary
//   fatomic_cli --all [--language C++|Java] [--csv] [--trace-out trace.json]
//   fatomic_cli --all --json --out-dir artifacts/
//   fatomic_cli --precision-floor 118,120
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
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
  /// Every flag on the command line, as spelt: what refusal() audits.
  std::set<std::string> given;

  /// Any trace exporter requested — flips Config::tracing on.
  bool want_trace() const {
    return !trace_out.empty() || trace_summary || metrics;
  }
  bool selected() const { return all || given.count("--app") != 0; }
};

int usage(int code) {
  std::cout <<
      "fatomic_cli -- detection/masking campaigns over the subject apps\n"
      "\n"
      "selection:\n"
      "  --list                 list the available applications (takes no\n"
      "                         other flag but --language)\n"
      "  --app NAME             run a campaign for one application (not\n"
      "                         with --all)\n"
      "  --all                  run campaigns for every application and\n"
      "                         print Table 1 and the figures; per-app lines\n"
      "                         carry the app's name (a sweep with\n"
      "                         --cross-check, --lint, --graph-check or\n"
      "                         --alias-check prints its verdicts only)\n"
      "  --language L           keep only suite 'C++'/'Java': filters every\n"
      "                         selection (--app, --all, --list); a\n"
      "                         selection left empty exits 1\n"
      "\n"
      "Every flag below needs --app or --all, except --precision-floor,\n"
      "--write-sets and --derive-policies, which also run without one.  A\n"
      "flag that cannot be honoured is refused (exit 1), never ignored.\n"
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
      "                         subject family including hidden demos;\n"
      "                         takes no campaign flag but --jobs and\n"
      "                         --throw-stacks\n"
      "  --diffs                attach a graph-diff example to each\n"
      "                         non-atomic method in --details output\n"
      "                         (needs --details)\n"
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
      "                         exception-flow sets.  Under --all not with\n"
      "                         --graph-check or --alias-check: their\n"
      "                         sweeps add lintDemo, which is mis-declared\n"
      "                         by design\n"
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
      "  --precision-floor P,W  static regression gate: exit 2 unless\n"
      "                         at least P methods are proven atomic and at\n"
      "                         least W get a partial checkpoint plan\n"
      "  --write-sets           print the write-set analysis' per-method\n"
      "                         checkpoint plans (with --all: the\n"
      "                         per-family fleet summary)\n"
      "\n"
      "mask (correction + verification):\n"
      "  --mask-verify          mask pure methods and re-verify (exit != 0\n"
      "                         when non-atomic methods remain)\n"
      "  --mask-partial         field-granular checkpoints from the\n"
      "                         write-set analysis (needs --mask-verify)\n"
      "  --validate-checkpoints shadow every partial checkpoint with a full\n"
      "                         one and compare after rollback (exit != 0\n"
      "                         on any divergence; needs --mask-verify)\n"
      "  --no-wrap M            exclude method M from masking (repeatable;\n"
      "                         unknown names are warned about; needs\n"
      "                         --mask-verify or --json)\n"
      "\n"
      "recovery (evidence-driven policy engine, DESIGN.md 14):\n"
      "  --policy-file FILE     install a per-method RecoveryPolicy table\n"
      "                         (JSON) for masked execution: listed methods\n"
      "                         recover by their policy (retry/degrade/\n"
      "                         early_return/rethrow_as) instead of the\n"
      "                         fixed rollback-and-rethrow; parse errors\n"
      "                         report file, line and column (needs\n"
      "                         --mask-verify)\n"
      "  --derive-policies FILE derive a policy table from the static\n"
      "                         report (with --app: weighted by that\n"
      "                         campaign's per-exception-type histograms)\n"
      "                         and write it to FILE with per-method\n"
      "                         evidence on stdout (not with --all or\n"
      "                         --cross-check)\n"
      "\n"
      "report (exporters):\n"
      "  --details              per-method classification table\n"
      "  --json                 classification + campaign as JSON\n"
      "  --dot                  dynamic call graph as Graphviz dot\n"
      "  --csv                  CSV summary of the sweep (needs --all)\n"
      "  --suggest              suggest exception-free declarations\n"
      "  --out-dir DIR          write every requested exporter's output to\n"
      "                         files under DIR instead of stdout (needs\n"
      "                         --json, --dot, --csv, --metrics, --trace-out\n"
      "                         or --derive-policies)\n"
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
      "  1  usage or runtime error: bad flags, a flag combination that\n"
      "     cannot be honoured, a selection left empty, unknown app,\n"
      "     unreadable or malformed --policy-file, I/O failure\n"
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
  const std::pair<const char*, bool Args::*> switches[] = {
      {"--list", &Args::list}, {"--all", &Args::all},
      {"--details", &Args::details}, {"--json", &Args::json},
      {"--dot", &Args::dot}, {"--csv", &Args::csv},
      {"--suggest", &Args::suggest}, {"--diffs", &Args::diffs},
      {"--mask-verify", &Args::mask_verify}, {"--analyze", &Args::analyze},
      {"--lint", &Args::lint}, {"--graph-check", &Args::graph_check},
      {"--alias-check", &Args::alias_check},
      {"--prune-static", &Args::prune_static},
      {"--cross-check", &Args::cross_check},
      {"--write-sets", &Args::write_sets},
      {"--mask-partial", &Args::mask_partial},
      {"--validate-checkpoints", &Args::validate_checkpoints},
      {"--throw-stacks", &Args::provenance},
      {"--trace-summary", &Args::trace_summary},
      {"--metrics", &Args::metrics}, {"--help", &Args::help},
      {"-h", &Args::help}};
  const std::pair<const char*, std::string Args::*> options[] = {
      {"--app", &Args::app}, {"--language", &Args::language},
      {"--policy-file", &Args::policy_file},
      {"--derive-policies", &Args::derive_policies_out},
      {"--trace-out", &Args::trace_out}, {"--out-dir", &Args::out_dir}};
  const std::pair<const char*, std::vector<std::string> Args::*> lists[] = {
      {"--exception-free", &Args::exception_free},
      {"--no-wrap", &Args::no_wrap}};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    args.given.insert(a);
    const auto named = [&](const auto& entry) { return a == entry.first; };
    const auto sw = std::ranges::find_if(switches, named);
    if (sw != std::end(switches)) {
      args.*(sw->second) = true;
      continue;
    }
    const auto opt = std::ranges::find_if(options, named);
    const auto list = std::ranges::find_if(lists, named);
    if (opt == std::end(options) && list == std::end(lists) &&
        a != "--precision-floor" && a != "--jobs") {
      std::cerr << "unknown option: " << a << '\n';
      return false;
    }
    if (i + 1 == argc) return false;
    const char* v = argv[++i];
    const char* end = v + std::strlen(v);
    if (opt != std::end(options)) {
      args.*(opt->second) = v;
    } else if (list != std::end(lists)) {
      (args.*(list->second)).push_back(v);
    } else if (a == "--jobs") {
      if (!parse_count(v, end, args.jobs)) {
        std::cerr << "--jobs expects a number from 0 to "
                  << std::numeric_limits<unsigned>::max() << ", got '" << v
                  << "'\n";
        return false;
      }
    } else {
      const char* comma = std::find(v, end, ',');
      std::pair<std::size_t, std::size_t> floors;
      if (comma == end || !parse_count(v, comma, floors.first) ||
          !parse_count(comma + 1, end, floors.second)) {
        std::cerr << "--precision-floor expects P,W (two counts), got '" << v
                  << "'\n";
        return false;
      }
      args.precision_floor = floors;
    }
  }
  if (!args.language.empty() && args.language != "C++" &&
      args.language != "Java") {
    std::cerr << "--language expects 'C++' or 'Java', got '" << args.language
              << "'\n";
    return false;
  }
  return true;
}

/// Flags that act on the selected apps' campaigns, so each needs --app or
/// --all.  --cross-check runs its own full and pruned campaigns, and takes
/// only the first kCrossCheckFlags of them.
constexpr const char* kCampaignFlags[] = {
    "--cross-check", "--jobs", "--throw-stacks", "--prune-static",
    "--exception-free", "--diffs", "--analyze", "--lint", "--graph-check",
    "--alias-check", "--mask-verify", "--no-wrap", "--details", "--json",
    "--dot", "--csv", "--suggest", "--trace-out", "--trace-summary",
    "--metrics"};
constexpr std::size_t kCrossCheckFlags = 3;

/// The first flag this command cannot honour, with what it needs, or ""
/// when every flag given will be honoured.  A refused command exits 1.
std::string refusal(const Args& args) {
  auto given = [&](const std::string& f) { return args.given.count(f) != 0; };
  if (args.list) {
    for (const std::string& flag : args.given)
      if (flag != "--list" && flag != "--language")
        return flag + " cannot be combined with --list, which takes only "
                      "--language";
    return "";
  }
  if (args.all && given("--app")) return "--app and --all are exclusive";
  const struct { const char* flag; bool ok; const char* needs; } needs[] = {
      {"--language", args.selected(), "--app, --all or --list"},
      {"--csv", args.all, "--all"},
      {"--derive-policies", !args.all && !args.cross_check,
       "--app or no selection, and no --cross-check: it weighs at most one "
       "campaign"},
      {"--mask-partial", args.mask_verify, "--mask-verify"},
      {"--validate-checkpoints", args.mask_verify,
       "--mask-verify: a detection campaign takes no partial checkpoint"},
      {"--policy-file", args.mask_verify,
       "--mask-verify: a detection campaign consults no recovery policy"},
      {"--no-wrap", args.mask_verify || args.json, "--mask-verify or --json"},
      {"--diffs", args.details, "--details, the only output of the diffs"},
      {"--out-dir",
       args.json || args.dot || args.csv || args.metrics ||
           !args.trace_out.empty() || !args.derive_policies_out.empty(),
       "an exporter that writes files: --json, --dot, --csv, --metrics, "
       "--trace-out or --derive-policies"},
  };
  for (const auto& n : needs)
    if (given(n.flag) && !n.ok)
      return std::string(n.flag) + " needs " + n.needs;
  for (std::size_t i = 0; i < std::size(kCampaignFlags); ++i) {
    const std::string flag = kCampaignFlags[i];
    if (!given(flag)) continue;
    if (!args.selected()) return flag + " needs --app or --all";
    if (args.cross_check && i >= kCrossCheckFlags)
      return flag + " cannot be combined with --cross-check, which runs "
                    "its own campaigns";
  }
  if (args.all && args.lint && (args.graph_check || args.alias_check))
    return std::string("--lint cannot be combined with ") +
           (args.graph_check ? "--graph-check" : "--alias-check") +
           " under --all: that gate sweeps lintDemo, which the lint flags "
           "by design";
  return "";
}

/// The apps a command selects: one --app, the --all sweep or the --list
/// set, filtered by --language.  The gates that sweep every subject family
/// add the hidden demos to --all.
std::vector<subjects::apps::App> select_apps(const Args& args) {
  std::vector<subjects::apps::App> apps;
  if (args.given.count("--app")) apps.push_back(subjects::apps::app(args.app));
  if (args.all || args.list) apps = subjects::apps::all_apps();
  if (args.all && (args.cross_check || args.graph_check || args.alias_check))
    for (const char* demo : {"lintDemo", "netDemo", "ServerDemo"})
      apps.push_back(subjects::apps::app(demo));
  if (!args.language.empty())
    std::erase_if(apps, [&](const subjects::apps::App& app) {
      return app.language != args.language;
    });
  return apps;
}

/// The unified Config every pipeline entry point below consumes.
fatomic::Config make_config(const Args& args) {
  fatomic::Config cfg;
  cfg.jobs(args.jobs)
      .record_diffs(args.diffs || args.alias_check)
      .tracing(args.want_trace())
      .provenance(args.provenance)
      .validate_checkpoints(args.validate_checkpoints);
  if (args.policies) cfg.recovery(args.policies);
  for (const auto& m : args.exception_free) cfg.exception_free(m);
  for (const auto& m : args.no_wrap) cfg.no_wrap(m);
  return cfg;
}

/// Writes an output file and reports it on stdout, with `summary` of its
/// content when given.  Relative names land under --out-dir when one was
/// given.  False when the file cannot be written.
bool write_output(const Args& args, const std::string& name,
                  const std::string& content, const std::string& summary) {
  std::filesystem::path path = name;
  if (!args.out_dir.empty() && path.is_relative())
    path = std::filesystem::path(args.out_dir) / name;
  std::ofstream os(path, std::ios::binary);
  if (!(os << content)) {
    std::cerr << "error: cannot write " << path.string() << '\n';
    return false;
  }
  std::cout << "wrote " << path.string()
            << (summary.empty() ? "" : " (" + summary + ")") << '\n';
  return true;
}

/// Routes one exporter artifact: to a file under --out-dir when set (named
/// `filename`), to stdout otherwise.  False when the file cannot be written.
bool emit(const Args& args, const std::string& filename,
          const std::string& content) {
  if (!args.out_dir.empty()) return write_output(args, filename, content, "");
  std::cout << '\n' << content;
  if (!content.empty() && content.back() != '\n') std::cout << '\n';
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

int print_lint(const std::string& app_name, const detect::Campaign& campaign,
               const fatomic::analyze::StaticReport& sreport) {
  // Dynamic lint (observed marks vs. declared sets), then the Pass 4
  // static lint for methods of observed classes the campaign never reached
  // — the dynamic graph's blind spot.
  auto findings = fatomic::analyze::lint(campaign);
  const auto uncovered = fatomic::analyze::lint_static(
      campaign, sreport.model, sreport.graph,
      fatomic::weave::runtime_exception_names());
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

/// Static regression gate (--precision-floor): the proven-atomic and
/// partial-plan counts must not fall below the asserted lower bounds.
int print_precision(const std::pair<std::size_t, std::size_t>& floors,
                    const fatomic::analyze::StaticReport& sreport) {
  const auto [floor_proven, floor_partial] = floors;
  const std::size_t proven = sreport.proven_count();
  const std::size_t partial = sreport.write_sets.partial_count();
  std::cout << "precision: " << proven << " proven atomic (floor "
            << floor_proven << "), " << partial
            << " partial checkpoint plans (floor " << floor_partial << ") of "
            << sreport.method_count() << " methods\n";
  if (proven >= floor_proven && partial >= floor_partial) return 0;
  std::cout << "precision regression: below asserted floor\n";
  return 2;
}

/// The static views, printed once: the Pass 1 verdict table (--analyze) and
/// the Pass 3 checkpoint plans (--write-sets; under --all the per-family
/// fleet summary).  They follow an --app campaign's summary line, and come
/// first otherwise.
void print_static_views(const Args& args,
                        const fatomic::analyze::StaticReport& sreport) {
  if (args.analyze) std::cout << '\n' << sreport.to_text();
  if (!args.write_sets) return;
  if (args.all)
    std::cout << '\n' << sreport.write_sets.fleet_text() << '\n';
  else
    std::cout << (args.app.empty() ? "" : "\n")
              << sreport.write_sets.to_text();
}

/// --derive-policies: base actions from the Pass 1-5 evidence, weighted by
/// `campaign`'s per-exception-type histograms when one ran (DESIGN.md 14).
/// False when the table cannot be written.
bool derive_policies(const Args& args,
                     const fatomic::analyze::StaticReport& sreport,
                     const detect::Campaign* campaign) {
  const auto derived = recovery::derive_policy_table(sreport, campaign);
  if (!write_output(args, args.derive_policies_out,
                    recovery::policy_table_json(*derived.table),
                    std::to_string(derived.table->size()) + " policies"))
    return false;
  for (const auto& [method, why] : derived.evidence)
    std::cout << "  " << method << ": "
              << recovery::to_string(derived.table->find(method)->action)
              << " [" << why << "]\n";
  return true;
}

/// Per-method throw-site histogram on stdout (--throw-stacks).
void print_provenance(const report::AppResult& result) {
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

/// Soundness gate (--cross-check): the full and the statically pruned
/// campaign of one app classify identically.
int print_cross_check(const subjects::apps::App& app, const Args& args,
                      const fatomic::analyze::StaticReport& sreport) {
  const auto cc = fatomic::analyze::cross_check(
      app.program, sreport.prune_set(), args.jobs);
  std::cout << app.name << ": cross-check "
            << (cc.identical ? "identical" : "DIVERGED") << ", "
            << cc.runs_saved << " of " << cc.full.runs.size()
            << " injector runs pruned\n";
  if (!cc.identical) std::cout << "  first mismatch: " << cc.mismatch << '\n';
  const int status = cc.identical ? 0 : 2;
  return args.provenance
             ? std::max(status, provenance_parity_check(app, args))
             : status;
}

/// --mask-verify: wraps the campaign's pure failure non-atomic methods and
/// re-runs every injection point against the corrected program.  Lines
/// start with `label`.  Returns the gate's exit status.
int print_mask_verify(const subjects::apps::App& app, const Args& args,
                      const detect::Classification& cls,
                      const detect::Policy& policy,
                      const fatomic::analyze::StaticReport& sreport,
                      const std::string& label) {
  // Verification re-runs every injection point: verify_masked_full honours
  // prune_atomic, so start from the unpruned configuration.
  fatomic::Config config = make_config(args);
  config.mask(fatomic::mask::wrap_pure(cls, policy));
  if (args.mask_partial)
    config.checkpoint_plans(fatomic::mask::make_plans(sreport));
  const auto verified = fatomic::mask::verify_masked_full(app.program, config);
  const auto remaining = verified.classification.nonatomic_names();
  std::cout << '\n'
            << label << "mask verification: " << remaining.size()
            << " non-atomic methods remain\n";
  for (const auto& name : remaining) std::cout << "  " << name << '\n';
  const auto& stats = verified.campaign.stats;
  if (args.mask_partial)
    std::cout << label << "checkpoints: " << stats.partial_checkpoints
              << " partial, " << stats.snapshots_taken << " full captures ("
              << stats.partial_fallbacks << " fallbacks), "
              << stats.checkpoint_units << " units\n";
  if (args.validate_checkpoints)
    std::cout << label << "checkpoint validator: "
              << stats.validator_divergences << " divergences\n";
  return remaining.empty() && stats.validator_divergences == 0 ? 0 : 2;
}

/// Runs one selected app: its campaign, the exporters, mask verification
/// and the gates — or, with --cross-check, the cross-check gate alone.
/// Under --all the sweep reports every campaign in Table 1 rather than in
/// a summary line, so the per-app lines carry the app's name, and the
/// campaign is appended to `sweep`.  Returns the app's exit status.
int run_app(const subjects::apps::App& app, const Args& args,
            const fatomic::analyze::StaticReport& sreport,
            std::vector<report::AppResult>& sweep) {
  if (args.cross_check) return print_cross_check(app, args, sreport);
  fatomic::Config config = make_config(args);
  if (args.prune_static) config.prune_atomic(sreport.prune_set());
  report::AppResult result = run_campaign(app, config);
  const auto& cls = result.classification;
  const std::string label = args.all ? app.name + ": " : "";

  if (!args.all)
    std::cout << app.name << " (" << app.language << "): "
              << result.campaign.injections() << " injections, "
              << cls.count_methods(detect::MethodClass::Atomic) << " atomic / "
              << cls.count_methods(detect::MethodClass::ConditionalNonAtomic)
              << " conditional / "
              << cls.count_methods(detect::MethodClass::PureNonAtomic)
              << " pure non-atomic methods\n";
  if (args.prune_static)
    std::cout << label << "static pruning: " << result.campaign.pruned_runs
              << " injector runs skipped (" << sreport.proven_count()
              << " of " << sreport.method_count()
              << " methods statically proven)\n";
  if (!args.all) print_static_views(args, sreport);

  // An unwritable output file fails the command (exit 1) unless a gate
  // failure already decides its status.
  bool written = true;
  if (args.details) std::cout << '\n' << report::method_details(result);
  if (args.json) {
    written &= emit(args, app.name + "_classification.json",
                    report::classification_json(cls));
    const detect::Policy& policy = config.policy();
    written &= emit(
        args, app.name + "_campaign.json",
        args.analyze ? report::campaign_json(result.campaign, cls, sreport)
        : policy.no_wrap.empty() && policy.exception_free.empty()
            ? report::campaign_json(result.campaign)
            : report::campaign_json(result.campaign, policy));
  }
  if (args.dot) {
    auto graph = detect::CallGraph::from(result.campaign);
    written &= emit(args, app.name + "_callgraph.dot", graph.to_dot(&cls));
  }
  // Under --all the sweep writes one combined trace file after the loop.
  if (!args.trace_out.empty() && !args.all)
    written &= write_output(
        args, args.trace_out,
        trace::chrome_trace_json(result.campaign.trace, app.name),
        std::to_string(result.campaign.trace.events.size()) + " events");
  if (args.trace_summary)
    std::cout << '\n'
              << app.name << ":\n"
              << trace::trace_summary(result.campaign.trace);
  if (args.metrics) {
    const auto registry = trace::campaign_metrics(result.campaign);
    if (args.out_dir.empty())
      std::cout << '\n' << app.name << ":\n" << registry.to_text();
    else
      written &= emit(args, app.name + "_metrics.json", registry.to_json());
  }
  if (args.provenance) print_provenance(result);
  if (!args.derive_policies_out.empty())
    written &= derive_policies(args, sreport, &result.campaign);
  if (args.suggest) {
    std::cout << '\n'
              << label
              << "exception-free candidates (each fully explains the "
                 "non-atomicity of at least one method):\n";
    for (const auto& site : detect::suggest_exception_free(result.campaign))
      std::cout << "  " << site << '\n';
  }

  int status = 0;
  if (args.mask_verify)
    status =
        print_mask_verify(app, args, cls, config.policy(), sreport, label);
  if (args.graph_check)
    status = std::max(
        status, print_graph_check(app.name, result.campaign, sreport.graph));
  if (args.alias_check)
    status = std::max(status, print_alias_check(app.name, result.campaign,
                                                sreport.write_sets));
  if (args.lint)
    status = std::max(status, print_lint(app.name, result.campaign, sreport));
  if (args.all) sweep.push_back(std::move(result));
  return std::max(status, written ? 0 : 1);
}

/// The sweep's own outputs (--all), after the per-app loop: the combined
/// trace file, Table 1 and the figures, and the CSV.  A gate sweep prints
/// its verdicts only, so it skips Table 1 and the figures.  False when a
/// file cannot be written.
bool print_sweep(const Args& args,
                 const std::vector<report::AppResult>& results) {
  bool written = true;
  if (!args.trace_out.empty()) {
    std::vector<std::pair<std::string, trace::Trace>> traces;
    std::size_t events = 0;
    for (const auto& r : results) {
      traces.emplace_back(r.name, r.campaign.trace);
      events += r.campaign.trace.events.size();
    }
    written &= write_output(args, args.trace_out,
                            trace::chrome_trace_json(traces),
                            std::to_string(traces.size()) + " apps, " +
                                std::to_string(events) + " events");
  }
  if (!(args.cross_check || args.lint || args.graph_check ||
        args.alias_check)) {
    std::cout << report::table1(results) << '\n';
    std::cout << report::figure_methods(results, "method classification")
              << '\n';
    std::cout << report::figure_calls(results, "classification by calls")
              << '\n';
    std::cout << report::figure_classes(results, "class distribution")
              << '\n';
  }
  if (args.csv)
    written &= emit(args, "all_summary.csv", report::to_csv(results));
  return written;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return usage(1);
  if (args.help || (argc == 1)) return usage(0);
  if (const std::string why = refusal(args); !why.empty()) {
    std::cerr << "error: " << why << '\n';
    return 1;
  }
  try {
    const auto apps = select_apps(args);
    if (apps.empty() && (args.selected() || args.list)) {
      std::cerr << "error: --language " << args.language
                << " leaves the selection empty\n";
      return 1;
    }
    if (args.list) {
      for (const auto& app : apps)
        std::cout << app.name << " (" << app.language << ")\n";
      return 0;
    }
    if (!args.out_dir.empty())
      std::filesystem::create_directories(args.out_dir);
    if (!args.policy_file.empty())
      args.policies = std::make_shared<const fatomic::recovery::PolicyTable>(
          recovery::load_policy_file(args.policy_file));
    fatomic::analyze::StaticReport sreport;
    if (args.precision_floor || args.write_sets || args.analyze ||
        !args.derive_policies_out.empty() || args.prune_static ||
        args.cross_check || args.mask_partial || args.lint ||
        args.graph_check || args.alias_check)
      sreport = fatomic::analyze::analyze_sources(subject_root());

    int status = 0;
    bool written = true;
    if (args.precision_floor)
      status = print_precision(*args.precision_floor, sreport);
    if (args.app.empty() || args.cross_check) print_static_views(args, sreport);
    if (!args.selected() && !args.derive_policies_out.empty())
      written = derive_policies(args, sreport, nullptr);
    std::vector<report::AppResult> sweep;
    for (const auto& app : apps)
      status = std::max(status, run_app(app, args, sreport, sweep));
    if (args.all) written &= print_sweep(args, sweep);
    return std::max(status, written ? 0 : 1);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
