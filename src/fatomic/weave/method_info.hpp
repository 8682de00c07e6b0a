// Method metadata and the global method registry.
//
// The paper's Analyzer (Figure 1, step 1) determines, for each method called
// by the program, which exceptions it may throw: the declared exceptions
// E_1..E_k plus generic runtime exceptions E_{k+1}..E_n.  In our weaving
// substitute each subject method declares this metadata statically with
// FAT_METHOD_INFO (see macros.hpp); the MethodInfo registers itself in a
// global registry the detection and masking phases consult.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace fatomic::weave {

/// One exception type a method may raise.  `raise` throws a fresh instance;
/// the injection engine calls it when the global point counter hits the
/// run's threshold (Listing 1, lines 2-5).
struct ExceptionSpec {
  std::string type_name;
  std::function<void()> raise;
};

/// The generic runtime exceptions E_{k+1}..E_n that every method may raise
/// on top of its declared ones (Section 4.1): one InjectedRuntimeError.  The
/// injector fires them after a call's declared exceptions.
extern const std::array<ExceptionSpec, 1> kRuntimeExceptions;

/// The type names of kRuntimeExceptions: the seed set of both exception-flow
/// passes.
std::set<std::string> runtime_exception_names();

enum class MethodKind : std::uint8_t {
  Regular,      ///< instance method with a receiver to checkpoint
  Constructor,  ///< receiver not yet fully formed: injection points only
  Static,       ///< no receiver: injection points only
};

class MethodInfo {
 public:
  MethodInfo(std::string class_name, std::string method_name,
             std::vector<ExceptionSpec> declared,
             MethodKind kind = MethodKind::Regular);

  MethodInfo(const MethodInfo&) = delete;
  MethodInfo& operator=(const MethodInfo&) = delete;

  const std::string& class_name() const { return class_name_; }
  const std::string& method_name() const { return method_name_; }
  /// "Class::method" — the stable key used by policies and reports.
  const std::string& qualified_name() const { return qualified_name_; }
  const std::vector<ExceptionSpec>& declared() const { return declared_; }
  /// Injection points per call (Listing 1, lines 2-5): one per declared
  /// exception, then one per generic runtime exception.
  std::uint64_t injection_points() const {
    return declared_.size() + std::size(kRuntimeExceptions);
  }
  MethodKind kind() const { return kind_; }
  bool has_receiver() const { return kind_ == MethodKind::Regular; }

 private:
  std::string class_name_;
  std::string method_name_;
  std::string qualified_name_;
  std::vector<ExceptionSpec> declared_;
  MethodKind kind_;
};

/// Registry of every MethodInfo constructed in the process; the equivalent
/// of the Analyzer's method inventory.  Registration is thread-safe: a
/// method first reached on a campaign worker thread (e.g. inside a catch
/// block that only runs under injection) registers itself concurrently with
/// other workers.
class MethodRegistry {
 public:
  static MethodRegistry& instance();

  void add(const MethodInfo* mi);
  /// Snapshot of the registered methods, in registration order.
  std::vector<const MethodInfo*> all() const;

  /// Returns nullptr when no method has that qualified name.  O(log n):
  /// lookups are hot both in campaign loops and in the static analyzer's
  /// fixpoint passes.
  const MethodInfo* find(const std::string& qualified_name) const;

 private:
  mutable std::mutex mu_;
  std::vector<const MethodInfo*> methods_;
  /// Index over methods_ by qualified name; on duplicate registrations the
  /// first-registered method wins, matching the old linear scan.
  std::map<std::string, const MethodInfo*> by_name_;
};

}  // namespace fatomic::weave
