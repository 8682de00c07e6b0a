// Shared internals of the provenance subsystem: the arming counter and the
// entry points the interposers (interpose.cpp) call into.  Private to
// src/fatomic/unwind/.
#pragma once

#include <atomic>
#include <typeinfo>

namespace fatomic::unwind::detail {

/// Live ScopedArm count; the interposer captures only when nonzero.
extern std::atomic<int> g_armed;

/// Captures the calling thread's backtrace into its ThrowRecord slot.
/// Called by the interposer with the exception object and its type_info;
/// must never throw or allocate.  Defined in provenance.cpp.
void record_throw(void* obj, const std::type_info* type) noexcept;

/// Records `type` as the exception the calling thread is about to raise:
/// the one in flight at uncaught level std::uncaught_exceptions() + 1 once
/// the raise begins (unwind::in_flight_type).  Every interposer calls it,
/// armed or not; never throws or allocates.  Defined in provenance.cpp.
void note_raise(const std::type_info* type) noexcept;

/// note_raise for a `throw;`: the exception it raises is the one the
/// innermost handler is handling.  Defined in provenance.cpp, which may
/// include <cxxabi.h>.
void note_rethrow() noexcept;

/// Defined in interpose.cpp.  Referencing it from provenance.cpp forces the
/// interposer's object file into every link that uses the provenance API,
/// which is what guarantees our __cxa_throw preempts the C++ runtime's.
bool interposer_linked() noexcept;

/// True when dlsym(RTLD_NEXT) found the real __cxa_throw to fall through to.
bool real_throw_ok() noexcept;

}  // namespace fatomic::unwind::detail
