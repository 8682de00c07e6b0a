// fatomic — automatic detection and masking of non-atomic exception handling.
//
// Umbrella header for the public API.  Reproduction of C. Fetzer,
// K. Högstedt, P. Felber, "Automatic Detection and Masking of Non-Atomic
// Exception Handling", DSN 2003.
//
// Typical use (all knobs flow through the fatomic::Config builder):
//
//   #include "fatomic/fatomic.hpp"
//
//   // 1. Instrument a class (FAT_REFLECT + FAT_METHOD_INFO + FAT_INVOKE).
//   // 2. Configure once, detect:
//   fatomic::Config config;
//   config.jobs(4).tracing(true);
//   fatomic::detect::Experiment exp([] { run_my_workload(); }, config);
//   auto campaign = exp.run();
//   auto cls = fatomic::detect::classify(campaign);
//   // 3. Mask the pure failure non-atomic methods (full checkpoints):
//   auto wrap = fatomic::mask::wrap_pure(cls);
//   {
//     fatomic::mask::MaskedScope masked(wrap);
//     run_my_workload();  // rolls back on every escaping exception
//   }
//   // 4. Verify with the same config; a campaign runs exactly its Config:
//   config.mask(wrap);
//   auto verified = fatomic::mask::verify_masked_full(
//       [] { run_my_workload(); }, config);
//   assert(verified.classification.nonatomic_names().empty());
//   // 5. Observe: campaign.trace holds the merged event stream —
//   //    trace::chrome_trace_json() for Perfetto, trace::trace_summary()
//   //    for the terminal, trace::campaign_metrics(campaign) for named
//   //    counters.
#pragma once

#include "fatomic/analyze/alias.hpp"
#include "fatomic/analyze/effects.hpp"
#include "fatomic/analyze/exception_flow.hpp"
#include "fatomic/analyze/source_model.hpp"
#include "fatomic/analyze/static_report.hpp"
#include "fatomic/common/error.hpp"
#include "fatomic/config.hpp"
#include "fatomic/detect/callgraph.hpp"
#include "fatomic/detect/classify.hpp"
#include "fatomic/detect/experiment.hpp"
#include "fatomic/detect/policy.hpp"
#include "fatomic/mask/masker.hpp"
#include "fatomic/recovery/derive.hpp"
#include "fatomic/recovery/policy.hpp"
#include "fatomic/recovery/policy_io.hpp"
#include "fatomic/reflect/reflect.hpp"
#include "fatomic/report/json.hpp"
#include "fatomic/report/json_parse.hpp"
#include "fatomic/report/report.hpp"
#include "fatomic/snapshot/diff.hpp"
#include "fatomic/snapshot/restore.hpp"
#include "fatomic/trace/export.hpp"
#include "fatomic/trace/metrics.hpp"
#include "fatomic/trace/trace.hpp"
#include "fatomic/unwind/provenance.hpp"
#include "fatomic/unwind/stack_table.hpp"
#include "fatomic/weave/macros.hpp"
