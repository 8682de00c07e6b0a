// The raise interposers: __cxa_throw (`throw e`), __cxa_rethrow (`throw;`)
// and std::rethrow_exception.  libfatomic.a precedes the C++ runtime on
// every link line, so these definitions resolve the compiler-emitted calls
// ahead of libstdc++'s; the real implementations are then reached through
// dlsym(RTLD_NEXT) and every exception continues on its normal path.  Each
// notes the type it raises, armed or not, so a frame that observes an
// exception during unwinding can name it (unwind::in_flight_type); a throw
// also captures its backtrace when armed.  This TU deliberately does NOT
// include <cxxabi.h>: the runtime's header declares __cxa_throw and
// __cxa_rethrow itself (noreturn, CDTOR_CALLABI) and redeclaring them here
// would have to match token-for-token across compiler versions.  See
// DESIGN.md §11.
#include "fatomic/unwind/internal.hpp"

#include <dlfcn.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <typeinfo>
#include <utility>

namespace fatomic::unwind::detail {

bool interposer_linked() noexcept { return true; }

/// No next definition of `name` to fall through to (e.g. a fully static
/// libstdc++ resolved after us): the exception cannot be raised, and dying
/// loudly is the only honest option.
[[noreturn]] void no_next_definition(const char* name) noexcept {
  std::fprintf(stderr,
               "fatomic: %s interposer found no real %s via RTLD_NEXT; "
               "aborting\n",
               name, name);
  std::abort();
}

void* next_definition(const char* name) noexcept {
  void* real = dlsym(RTLD_NEXT, name);
  if (real == nullptr) no_next_definition(name);
  return real;
}

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
  if (real == nullptr) det::no_next_definition("__cxa_throw");
  det::note_raise(tinfo);
  if (det::g_armed.load(std::memory_order_relaxed) != 0) {
    det::record_throw(thrown, tinfo);
  }
  real(thrown, tinfo, dest);
}

// Not [[noreturn]] either, for the same tail call.
extern "C" void __cxa_rethrow() {
  namespace det = fatomic::unwind::detail;
  using Fn = void (*)();
  static const Fn real =
      reinterpret_cast<Fn>(det::next_definition("__cxa_rethrow"));
  det::note_rethrow();
  real();
}

// Declared [[noreturn]] by <exception>, so this frame stays on the unwind of
// the exception it raises: one more frame step, on a path no campaign takes.
// exception_ptr::__cxa_exception_type() is libstdc++'s.
void std::rethrow_exception(std::exception_ptr ep) {
  namespace det = fatomic::unwind::detail;
  using Fn = void (*)(std::exception_ptr);
  static const Fn real = reinterpret_cast<Fn>(det::next_definition(
      "_ZSt17rethrow_exceptionNSt15__exception_ptr13exception_ptrE"));
  det::note_raise(ep.__cxa_exception_type());
  real(std::move(ep));
  std::abort();  // the real one does not return
}
