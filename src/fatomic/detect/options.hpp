// Campaign settings for the automated-experiment driver.
//
// CampaignSettings is the internal carrier detect::Experiment consumes.
// User code should not populate it field by field: the supported entry
// point is the fatomic::Config builder (fatomic/config.hpp), which covers
// detection, masking, pruning, checkpointing, recovery and tracing in one
// surface and converts to CampaignSettings internally.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include "fatomic/weave/runtime.hpp"

namespace fatomic::detect {

struct CampaignSettings {
  /// Safety valve against runaway campaigns on non-terminating programs.
  std::uint64_t max_runs = 10'000'000;

  /// Worker threads running injector runs concurrently.  1 (the default)
  /// keeps the strictly sequential loop on the calling thread; 0 means "one
  /// per hardware thread".  Any value yields a Campaign identical to the
  /// sequential one provided the program is deterministic and shares no
  /// mutable state across invocations (every subject workload constructs
  /// fresh objects per run).
  unsigned jobs = 1;

  /// Run the campaign against the *corrected* program (injection wrappers
  /// around atomicity wrappers) to verify that masking removed all
  /// non-atomic behaviour.  Requires `wrap` (or a predicate already
  /// installed in the runtime).
  bool masked = false;

  /// Wrap predicate installed for the duration of the campaign when
  /// `masked` is set.
  weave::Runtime::WrapPredicate wrap;

  /// Attach a one-line object-graph diff to every non-atomic mark (what
  /// state the failed method left behind).  Costs one diff per intercepted
  /// exception.
  bool record_diffs = false;

  /// Attach the full object-graph diff path list to every non-atomic mark
  /// (Mark::footprint) so `analyze::alias_check` can validate narrowed
  /// checkpoint plans against the dynamically observed mutation footprints.
  bool record_footprints = false;

  /// Per-method checkpoint plans (write-set analysis output) installed into
  /// the runtime for the duration of the campaign; the atomicity wrappers
  /// consult them for field-granular checkpointing.  Null leaves whatever
  /// plans the runtime already holds.  Only meaningful with `masked`.
  std::shared_ptr<const weave::PlanMap> checkpoint_plans;

  /// Completeness validator: shadow every partial checkpoint with a full
  /// one and count rollback divergences (stats.validator_divergences).
  bool validate_checkpoints = false;

  /// Static campaign pruning (analyze::StaticReport::prune_set feeds this):
  /// qualified names of methods the static analysis proved failure atomic.
  /// The Count baseline's per-call table gives the call stack of every
  /// injection point; a threshold whose entire stack consists of methods in
  /// this set (or without a receiver) is skipped — the run could only
  /// produce atomic marks for methods already known atomic, so the resulting
  /// classification sets are unchanged while the campaign executes fewer
  /// injector runs.  Empty set = no pruning.  Soundness argument: DESIGN.md
  /// §7.
  std::set<std::string> prune_atomic;

  /// Record the structured event trace (trace/trace.hpp) for every run and
  /// return it, deterministically merged, as Campaign::trace.  Off by
  /// default: the disabled path costs one predicted branch per event site.
  bool trace = false;

  /// Capture throw-site backtraces (unwind/provenance.hpp) for the duration
  /// of the campaign: arms the __cxa_throw interposer, attaches interned
  /// stack ids to marks and escape records, and fills campaign_json's
  /// "exception_provenance" section.  Off by default; a no-op on builds with
  /// the FATOMIC_PROVENANCE kill switch off.
  bool provenance = false;

  /// Recovery policy table (DESIGN.md §14) installed into the runtime for
  /// the duration of the campaign; the masking wrappers recover methods with
  /// an entry by their policy and roll the others back.  Null leaves
  /// whatever table the runtime already holds.  Only meaningful with
  /// `masked`.
  std::shared_ptr<const recovery::PolicyTable> recovery_policies;
};

}  // namespace fatomic::detect
