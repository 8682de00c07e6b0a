// Offline classification of campaign results (Figure 1, step 3 output):
// each method is failure atomic iff it was never marked non-atomic; a
// non-atomic method is *pure* failure non-atomic iff some run marks it first
// during exception propagation, otherwise *conditional* (Definition 3 and
// Section 4.3).  Classes roll up from their methods (Figure 4).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fatomic/detect/campaign.hpp"
#include "fatomic/detect/policy.hpp"

namespace fatomic::detect {

enum class MethodClass : std::uint8_t {
  Atomic,
  ConditionalNonAtomic,
  PureNonAtomic,
};

const char* to_string(MethodClass c);

struct MethodResult {
  const weave::MethodInfo* method = nullptr;
  MethodClass cls = MethodClass::Atomic;
  std::uint64_t calls = 0;           ///< calls in the original program
  std::uint64_t atomic_marks = 0;    ///< per-injection atomic observations
  std::uint64_t nonatomic_marks = 0; ///< per-injection non-atomic observations
  /// First recorded graph-diff explanation (campaigns run with
  /// Config::record_diffs); empty otherwise.
  std::string example_detail;
};

struct ClassResult {
  std::string class_name;
  MethodClass cls = MethodClass::Atomic;  ///< worst classification of members
  std::size_t methods = 0;
};

struct Classification {
  std::vector<MethodResult> methods;  ///< sorted by qualified name
  std::vector<ClassResult> classes;   ///< sorted by class name

  const MethodResult* find(const std::string& qualified_name) const;

  std::size_t count_methods(MethodClass c) const;
  std::size_t count_classes(MethodClass c) const;
  std::uint64_t count_calls(MethodClass c) const;

  /// Qualified names of all pure failure non-atomic methods — the set the
  /// masking phase needs to wrap (wrapping pure methods alone makes every
  /// conditional method atomic by induction; DESIGN.md §5).
  std::vector<std::string> pure_names() const;

  /// Qualified names of every failure non-atomic method (pure+conditional).
  std::vector<std::string> nonatomic_names() const;
};

/// Classifies a campaign.  Runs whose exception was injected at a method in
/// policy.exception_free are discarded first (Section 4.3, third case).
Classification classify(const Campaign& campaign, const Policy& policy = {});

}  // namespace fatomic::detect
