// Domain scenario: the paper's Section 6.1 repair workflow on the LinkedList
// subject — detect, read the report, apply the "trivial fixes" (by switching
// to the repaired variant), declare exception-free methods via the policy,
// and mask what remains.
//
//   $ ./examples/repair_collections
#include <iostream>

#include "fatomic/fatomic.hpp"
#include "subjects/apps/apps.hpp"

namespace detect = fatomic::detect;
using detect::MethodClass;

namespace {

void summarize(const char* label, const detect::Classification& cls) {
  std::cout << label << ":\n"
            << "  atomic:      " << cls.count_methods(MethodClass::Atomic)
            << "\n  conditional: "
            << cls.count_methods(MethodClass::ConditionalNonAtomic)
            << "\n  pure:        "
            << cls.count_methods(MethodClass::PureNonAtomic) << '\n';
  for (const auto& name : cls.pure_names()) std::cout << "    " << name << '\n';
}

}  // namespace

int main() {
  std::cout << "step 1: detect on the legacy LinkedList application\n";
  detect::Experiment before(subjects::apps::run_linked_list);
  auto before_cls = detect::classify(before.run());
  summarize("legacy LinkedList", before_cls);

  std::cout << "\nstep 2: apply the trivial fixes (LinkedListFixed) and "
               "re-run the detection phase\n";
  detect::Experiment after(subjects::apps::run_linked_list_fixed);
  auto after_campaign = after.run();
  summarize("repaired LinkedListFixed", detect::classify(after_campaign));

  std::cout << "\nstep 3: declare audit() exception-free (Section 4.3 "
               "policy) and re-classify without re-running\n";
  fatomic::Config config;
  config.exception_free("subjects::collections::LinkedListFixed::audit");
  auto with_policy = detect::classify(after_campaign, config.policy());
  summarize("with exception-free policy", with_policy);

  std::cout << "\nstep 4: mask the remaining pure methods and verify\n";
  config.mask(fatomic::mask::wrap_pure(with_policy, config.policy()));
  auto verified = fatomic::mask::verify_masked_full(
      subjects::apps::run_linked_list_fixed, config);
  const auto remaining = verified.classification.nonatomic_names();
  std::cout << "  non-atomic methods after masking: " << remaining.size()
            << " (expect 0)\n";
  return remaining.empty() ? 0 : 1;
}
