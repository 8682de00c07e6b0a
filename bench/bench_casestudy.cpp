// Regenerates the LinkedList repair case study of Section 6.1: the paper
// reduced the pure failure non-atomic methods of the Java LinkedList from 18
// (7.8% of calls) to 3 (<0.2% of calls) through trivial code modifications
// and by declaring exception-free methods.  This bench reports the same
// progression for our port:
//   1. the legacy LinkedList (before),
//   2. the trivially repaired LinkedListFixed (after),
//   3. LinkedListFixed plus an exception-free declaration for audit()
//      (the paper's Section 4.3 policy step),
// and finally verifies that masking the remaining pure methods repairs the
// program completely.
#include <iostream>

#include "bench_common.hpp"
#include "fatomic/mask/masker.hpp"

namespace detect = fatomic::detect;
using detect::MethodClass;

namespace {

std::string stage_json(const detect::Classification& cls,
                       std::uint64_t total_calls) {
  const std::uint64_t pure_calls = cls.count_calls(MethodClass::PureNonAtomic);
  return bench_common::JsonObject{}
      .put("pure", cls.count_methods(MethodClass::PureNonAtomic))
      .put("conditional", cls.count_methods(MethodClass::ConditionalNonAtomic))
      .put("methods", cls.methods.size())
      .put("pure_call_share_pct",
           total_calls == 0 ? 0.0
                            : 100.0 * static_cast<double>(pure_calls) /
                                  static_cast<double>(total_calls))
      .dump();
}

void report(const char* label, const detect::Classification& cls,
            std::uint64_t total_calls) {
  const std::size_t pure = cls.count_methods(MethodClass::PureNonAtomic);
  const std::size_t cond = cls.count_methods(MethodClass::ConditionalNonAtomic);
  const std::uint64_t pure_calls = cls.count_calls(MethodClass::PureNonAtomic);
  std::cout << label << ": " << pure << " pure + " << cond
            << " conditional non-atomic methods of " << cls.methods.size()
            << "; pure methods account for "
            << (total_calls == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(pure_calls) /
                          static_cast<double>(total_calls))
            << "% of calls\n";
  for (const auto& m : cls.methods)
    if (m.cls == MethodClass::PureNonAtomic)
      std::cout << "    pure: " << m.method->qualified_name() << '\n';
}

}  // namespace

int main() {
  std::cout << "LinkedList case study (paper Section 6.1: 18 -> 3 pure "
               "non-atomic methods)\n\n";

  detect::Experiment before_exp(subjects::apps::run_linked_list);
  auto before_campaign = before_exp.run();
  auto before = detect::classify(before_campaign);
  report("before (legacy LinkedList)", before, before_campaign.total_calls());

  detect::Experiment after_exp(subjects::apps::run_linked_list_fixed);
  auto after_campaign = after_exp.run();
  auto after = detect::classify(after_campaign);
  report("\nafter trivial fixes (LinkedListFixed)", after,
         after_campaign.total_calls());

  fatomic::Config config;
  config.exception_free("subjects::collections::LinkedListFixed::audit");
  auto with_policy = detect::classify(after_campaign, config.policy());
  report("\nafter declaring audit() exception-free", with_policy,
         after_campaign.total_calls());

  config.mask(fatomic::mask::wrap_pure(with_policy, config.policy()));
  auto verified = fatomic::mask::verify_masked_full(
                      subjects::apps::run_linked_list_fixed, config)
                      .classification;
  std::cout << "\nmasking the remaining pure methods: "
            << verified.nonatomic_names().size()
            << " non-atomic methods remain under re-injection (expect 0)\n";
  bench_common::write_bench_json(
      "casestudy",
      bench_common::JsonObject{}
          .put_raw("before", stage_json(before, before_campaign.total_calls()))
          .put_raw("after", stage_json(after, after_campaign.total_calls()))
          .put_raw("with_policy",
                   stage_json(with_policy, after_campaign.total_calls()))
          .put("masked_nonatomic_remaining", verified.nonatomic_names().size())
          .dump());
  return verified.nonatomic_names().empty() ? 0 : 1;
}
