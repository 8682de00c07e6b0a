// The __cxa_throw interposer.  libfatomic.a precedes the C++ runtime on
// every link line, so this definition resolves the compiler-emitted
// `throw` calls ahead of libstdc++'s; the real implementation is then
// reached through dlsym(RTLD_NEXT) and every exception continues on its
// normal path.  This TU deliberately does NOT include <cxxabi.h>: the
// runtime's header declares __cxa_throw itself (noreturn, CDTOR_CALLABI)
// and redeclaring it here would have to match token-for-token across
// compiler versions.  See DESIGN.md §11.
#include "fatomic/unwind/internal.hpp"

#if FATOMIC_PROVENANCE_ACTIVE

#include <dlfcn.h>

#include <cstdio>
#include <cstdlib>
#include <typeinfo>

namespace fatomic::unwind::detail {

bool interposer_linked() noexcept { return true; }

using CxaThrowFn = void (*)(void*, std::type_info*, void (*)(void*));

CxaThrowFn real_cxa_throw() noexcept {
  static CxaThrowFn real =
      reinterpret_cast<CxaThrowFn>(dlsym(RTLD_NEXT, "__cxa_throw"));
  return real;
}

bool real_throw_ok() noexcept { return real_cxa_throw() != nullptr; }

}  // namespace fatomic::unwind::detail

// Not [[noreturn]]: the call to the real __cxa_throw is then a tail call,
// so no throw's unwind steps through this frame (DESIGN.md §11).
extern "C" void __cxa_throw(void* thrown, std::type_info* tinfo,
                            void (*dest)(void*)) {
  namespace det = fatomic::unwind::detail;
  const det::CxaThrowFn real = det::real_cxa_throw();
  if (real == nullptr) {
    // No next definition to fall through to (e.g. fully static libstdc++
    // resolved after us).  The exception cannot be raised; dying loudly is
    // the only honest option.
    std::fprintf(stderr,
                 "fatomic: __cxa_throw interposer found no real __cxa_throw "
                 "via RTLD_NEXT; aborting\n");
    std::abort();
  }
  if (det::g_armed.load(std::memory_order_relaxed) != 0) {
    det::record_throw(thrown, tinfo);
  }
  real(thrown, tinfo, dest);
}

#else  // !FATOMIC_PROVENANCE_ACTIVE

namespace fatomic::unwind::detail {

bool interposer_linked() noexcept { return false; }
bool real_throw_ok() noexcept { return false; }

}  // namespace fatomic::unwind::detail

#endif  // FATOMIC_PROVENANCE_ACTIVE
