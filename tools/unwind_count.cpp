// unwind_count — an LD_PRELOAD shim that counts the unwinder's work and
// prints the counts on stderr when the process exits:
//
//   LD_PRELOAD=build/tools/libunwind_count.so build/tools/fatomic_cli --app stdQ
//   unwind_count: raise=N rethrow=N resume=N find_fde=N
//
// Each entry point forwards to the next definition (libgcc_s's) after one
// relaxed increment:
//
//   raise     _Unwind_RaiseException: a throw, a std::rethrow_exception, and
//             the search phase libgcc starts for a rethrow;
//   rethrow   _Unwind_Resume_or_Rethrow: a `throw;` (__cxa_rethrow), which
//             starts a second two-phase unwind of a caught exception;
//   resume    _Unwind_Resume: a landing pad that ran cleanups (destructors)
//             and hands the exception back to the unwinder;
//   find_fde  _Unwind_Find_FDE: one frame step of either phase.
//
// A sanitizer runtime must load first in its process, so the shim cannot
// be preloaded into a sanitized build.
#include <dlfcn.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace {

std::atomic<unsigned long long> g_raise{0}, g_rethrow{0}, g_resume{0},
    g_find_fde{0};

template <class Fn>
Fn next(const char* name) {
  void* sym = dlsym(RTLD_NEXT, name);
  if (sym == nullptr) {
    std::fprintf(stderr, "unwind_count: no next %s\n", name);
    std::abort();
  }
  return reinterpret_cast<Fn>(sym);
}

void count(std::atomic<unsigned long long>& n) {
  n.fetch_add(1, std::memory_order_relaxed);
}

[[gnu::destructor]] void report() {
  std::fprintf(stderr, "unwind_count: raise=%llu rethrow=%llu resume=%llu "
                       "find_fde=%llu\n",
               g_raise.load(), g_rethrow.load(), g_resume.load(),
               g_find_fde.load());
}

}  // namespace

// The unwinder's types are opaque here: each wrapper passes its arguments
// through untouched.  None is declared noreturn, so every forward compiles to
// a tail call and adds no frame to the unwind it forwards.
extern "C" {

int _Unwind_RaiseException(void* exc) {
  using Fn = int (*)(void*);
  static const Fn real = next<Fn>("_Unwind_RaiseException");
  count(g_raise);
  return real(exc);
}

int _Unwind_Resume_or_Rethrow(void* exc) {
  using Fn = int (*)(void*);
  static const Fn real = next<Fn>("_Unwind_Resume_or_Rethrow");
  count(g_rethrow);
  return real(exc);
}

void _Unwind_Resume(void* exc) {
  using Fn = void (*)(void*);
  static const Fn real = next<Fn>("_Unwind_Resume");
  count(g_resume);
  real(exc);
}

const void* _Unwind_Find_FDE(void* pc, void* bases) {
  using Fn = const void* (*)(void*, void*);
  static const Fn real = next<Fn>("_Unwind_Find_FDE");
  count(g_find_fde);
  return real(pc, bases);
}

}  // extern "C"
