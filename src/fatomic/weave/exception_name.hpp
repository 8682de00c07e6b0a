// Name of the exception currently in flight, for the exception-flow lint
// (analyze/exception_flow.hpp): an injection wrapper that intercepts a
// propagating exception records its demangled type name in the Mark, so the
// static Analyzer can cross-check every dynamically observed exception
// against the method's computed may-propagate set.
//
// Uses the Itanium C++ ABI introspection hooks (GCC/Clang); on other
// toolchains the name is empty and the lint degrades to a no-op.
#pragma once

#include <string>

#if defined(__GNUG__)
#include <cxxabi.h>

#include <cstdlib>
#include <typeinfo>
#include <unordered_map>
#endif

namespace fatomic::weave {

/// Demangled type name of the exception being handled by the innermost
/// enclosing catch block, or "" when unavailable.  Must be called from
/// inside a catch handler.  Each thread demangles a type once: a typed
/// recovery policy asks for the name of every exception it catches.
inline std::string current_exception_type_name() {
#if defined(__GNUG__)
  const std::type_info* ti = abi::__cxa_current_exception_type();
  if (ti == nullptr) return {};
  thread_local std::unordered_map<const std::type_info*, std::string> names;
  if (auto it = names.find(ti); it != names.end()) return it->second;
  int status = 0;
  char* demangled = abi::__cxa_demangle(ti->name(), nullptr, nullptr, &status);
  std::string name = status == 0 && demangled != nullptr ? demangled : ti->name();
  std::free(demangled);
  return names.emplace(ti, std::move(name)).first->second;
#else
  return {};
#endif
}

}  // namespace fatomic::weave
