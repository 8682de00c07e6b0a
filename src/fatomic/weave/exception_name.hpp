// Names of exception types, for the exception-flow lint
// (analyze/exception_flow.hpp) and typed recovery policies: an injection
// wrapper that observes a propagating exception records its demangled type
// name in the Mark, so the static Analyzer can cross-check every dynamically
// observed exception against the method's computed may-propagate set.
//
// Uses the Itanium C++ ABI introspection hooks, which every supported
// toolchain (GCC or Clang on ELF) provides.
#pragma once

#include <cxxabi.h>

#include <cstdlib>
#include <string>
#include <typeinfo>
#include <unordered_map>

namespace fatomic::weave {

/// Demangled name of the exception type `ti`, or "" for null (a foreign,
/// non-C++ exception).  Each thread demangles a type once: a typed recovery
/// policy asks for the name of every exception it catches.
inline std::string exception_type_name(const std::type_info* ti) {
  if (ti == nullptr) return {};
  thread_local std::unordered_map<const std::type_info*, std::string> names;
  if (auto it = names.find(ti); it != names.end()) return it->second;
  int status = 0;
  char* demangled = abi::__cxa_demangle(ti->name(), nullptr, nullptr, &status);
  std::string name = status == 0 && demangled != nullptr ? demangled : ti->name();
  std::free(demangled);
  return names.emplace(ti, std::move(name)).first->second;
}

/// Demangled type name of the exception being handled by the innermost
/// enclosing catch block, or "" for a foreign (non-C++) exception.  Must be
/// called from inside a catch handler.
inline std::string current_exception_type_name() {
  return exception_type_name(abi::__cxa_current_exception_type());
}

}  // namespace fatomic::weave
