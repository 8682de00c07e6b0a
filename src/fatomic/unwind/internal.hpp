// Shared internals of the provenance subsystem: the arming counter and the
// capture entry point the __cxa_throw interposer (interpose.cpp) calls into.
// Private to src/fatomic/unwind/.
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

/// Defined in interpose.cpp.  Referencing it from provenance.cpp forces the
/// interposer's object file into every link that uses the provenance API,
/// which is what guarantees our __cxa_throw preempts the C++ runtime's.
bool interposer_linked() noexcept;

/// True when dlsym(RTLD_NEXT) found the real __cxa_throw to fall through to.
bool real_throw_ok() noexcept;

}  // namespace fatomic::unwind::detail
