// The recovery policy lattice — the generalization of the paper's single
// recovery strategy (rollback-and-rethrow, Listing 2 lines 8-10) into a
// per-method decision on the lattice
//
//   rollback | rethrow_as | early_return | retry(n) | degrade
//
// following Ares' recovery operators and TripleAgent's perturbation/recovery
// split (PAPERS.md).  A PolicyTable maps qualified method names to policies.
// Every atomicity wrapper (weave/invoke.hpp) applies the action of the
// method's entry in the table installed in the runtime, or of
// kRollbackPolicy when it has none, when an exception unwinds through the
// wrapped call.  Tables are *derived from campaign evidence*
// (recovery/derive.hpp), never guessed: every action is backed by a static
// proof or a dynamically validated plan, and the runtime still re-checks the
// assumptions each action rests on (see the field comments).
//
// This header is dependency-free within fatomic so the weaving runtime can
// hold a table without layering cycles; derivation (analyze/detect evidence)
// and JSON io live in their own translation units.
#pragma once

#include <map>
#include <memory>
#include <stdexcept>
#include <string>

namespace fatomic::recovery {

/// What the atomicity wrapper does when an exception unwinds through a
/// wrapped call.  Ordered from most to least conservative — derivation only
/// moves a method down this list when evidence licenses it.
enum class Action : std::uint8_t {
  /// The paper's strategy: restore the entry checkpoint, rethrow the
  /// original exception.  Always sound; the pinned action for ⊤-collapsed
  /// write sets and escape-heavy methods.
  Rollback,
  /// Rollback, then throw recovery::ServiceError naming the original type —
  /// exception transformation for types that historically escape the whole
  /// program (the caller demonstrably never handles them, so a stable
  /// boundary type loses nothing and gives outer layers one type to catch).
  RethrowAs,
  /// Rollback, swallow, and return a neutral (value-initialized) result —
  /// Ares' early-return operator.  Only applied when the wrapped method's
  /// return type is void or value-initializable; anything else falls back
  /// to Rollback at the call site.
  EarlyReturn,
  /// Re-execute the method body up to `retry_budget` times.  Proven-atomic
  /// methods retry without any checkpoint (a failed attempt provably left
  /// no trace); methods with a verified partial plan roll the plan-scoped
  /// checkpoint back before every attempt.  Budget exhaustion falls back to
  /// rollback + rethrow.
  Retry,
  /// Failure-oblivious continuation, guarded: compare post-exception state
  /// against the entry checkpoint and swallow the exception only when the
  /// two are equal — a corrupted-state verdict is never masked; it rolls
  /// back and rethrows instead.
  Degrade,
};

/// Stable lowercase tag ("rollback", "rethrow_as", ...) used by reports,
/// metrics and the JSON round trip.
const char* to_string(Action a);

/// Inverse of to_string; throws std::invalid_argument on unknown tags.
Action parse_action(const std::string& tag);

/// The per-method recovery decision.
struct RecoveryPolicy {
  Action action = Action::Rollback;

  /// Retry: additional attempts after the first failure.  0 with
  /// action == Retry degenerates to rollback + rethrow.
  unsigned retry_budget = 0;

  /// Retry: take (and restore before each attempt) the entry checkpoint.
  /// False only for statically proven-atomic methods, whose failed attempts
  /// provably cannot have mutated the receiver.
  bool rollback_before_retry = true;

  /// Exception-type-specific overrides, keyed by the demangled type name the
  /// wrapper observes (weave::current_exception_type_name).  Derived from
  /// the provenance throw-site histograms: e.g. a type whose observations
  /// always escaped the program gets RethrowAs here even when the method's
  /// base action is Retry.
  std::map<std::string, Action> exception_overrides;

  /// The action for a given observed exception type.
  Action action_for(const std::string& exception_type) const {
    auto it = exception_overrides.find(exception_type);
    return it == exception_overrides.end() ? action : it->second;
  }

  bool operator==(const RecoveryPolicy&) const = default;
};

/// The paper's atomicity wrapper as a policy: roll back and rethrow.  Every
/// wrapped method without a table entry runs it.
inline const RecoveryPolicy kRollbackPolicy{};

/// Qualified-method-name → policy.  Methods without an entry run
/// kRollbackPolicy, so installing an empty table changes nothing.
class PolicyTable {
 public:
  void set(const std::string& qualified_name, RecoveryPolicy policy) {
    policies_[qualified_name] = std::move(policy);
  }

  /// The policy for a method, or null when the table has no entry.
  const RecoveryPolicy* find(const std::string& qualified_name) const {
    auto it = policies_.find(qualified_name);
    return it == policies_.end() ? nullptr : &it->second;
  }

  const std::map<std::string, RecoveryPolicy>& policies() const {
    return policies_;
  }
  std::size_t size() const { return policies_.size(); }
  bool empty() const { return policies_.empty(); }

  bool operator==(const PolicyTable&) const = default;

 private:
  std::map<std::string, RecoveryPolicy> policies_;
};

/// The stable boundary exception RethrowAs transforms into: what() carries
/// the original type so logs stay diagnosable after the transformation.
class ServiceError : public std::runtime_error {
 public:
  explicit ServiceError(const std::string& original_type)
      : std::runtime_error("recovery: ServiceError (transformed from " +
                           original_type + ")"),
        original_type_(original_type) {}

  const std::string& original_type() const { return original_type_; }

 private:
  std::string original_type_;
};

}  // namespace fatomic::recovery
