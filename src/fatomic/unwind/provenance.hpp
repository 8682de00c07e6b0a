// Exception provenance: throw-site stack capture at zero cost on the
// non-throwing path (DESIGN.md §11).
//
// The campaign reports could say *that* a method is non-atomic but not
// *where* the exception that exposed it came from — diagnosing a masked
// rollback or an unexpected escape meant rerunning under a debugger.  This
// subsystem closes that gap with the technique from ecatmur's "Zero-overhead
// exception stacktraces" (P2490): interpose the Itanium ABI's `__cxa_throw`
// entry point (ELF symbol interposition in interpose.cpp, falling through to
// the real implementation via dlsym(RTLD_NEXT)), capture a raw-PC backtrace
// with `_Unwind_Backtrace` at every armed throw, and park the record in a
// thread-local slot keyed by the exception object's address.  Nothing
// executes on the non-throwing path — the interposer is only entered by
// `throw` itself (bench_provenance gates this at <1%) — and even the throw
// path stays bounded: raw PC capture only, symbolization (dladdr + demangle,
// interned per PC) is deferred to export time.
//
// Consumers: weave::Runtime attaches the pending record to marks and escape
// outcomes, trace::TraceBuffer records `throw-site` events referencing
// interned stack ids (stack_table.hpp), and the exporters render symbolized
// frames in Perfetto JSON, --trace-summary and campaign_json's
// "exception_provenance" section.
//
// The same interposer, with two siblings for `throw;` (__cxa_rethrow) and
// std::rethrow_exception, also keeps the type of every exception in flight,
// armed or not (in_flight_type): an injection wrapper observes the exception
// crossing it in a destructor, where no handler can name it.
//
// The interposers are part of every build, so the library needs GCC or Clang
// on an ELF platform with libstdc++ (the root CMakeLists.txt checks the
// first two).  Unarmed, the throw interposer costs a throw one thread-local
// store and one relaxed atomic load; a campaign arms it only with
// Config::provenance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <typeinfo>
#include <vector>

namespace fatomic::unwind {

/// Raw-PC capture depth per throw.  Fixed so the throw-path record is one
/// thread-local array write, no allocation.
constexpr std::size_t kMaxFrames = 48;

/// One captured throw: who threw what, from where.
struct ThrowRecord {
  /// The exception object address `__cxa_throw` received — the key that ties
  /// a record to the exception a handler later observes.
  const void* object = nullptr;
  const std::type_info* type = nullptr;
  /// Per-thread throw ordinal (1-based; 0 marks an empty slot).  Lets a
  /// consumer distinguish "the same exception propagating" from "a new
  /// throw replaced the slot".
  std::uint64_t serial = 0;
  std::size_t depth = 0;  ///< captured frames in pc[]
  const void* pc[kMaxFrames] = {};
};

/// True when the interposer is linked into this binary ahead of the C++
/// runtime's definition and able to reach the real __cxa_throw.  A process
/// that has thrown can only see true: without a real __cxa_throw the
/// interposer aborts on the first throw.
bool available();

/// True while at least one ScopedArm is live.  The interposer checks this
/// (one relaxed atomic load) before capturing, so programs that never run a
/// provenance campaign pay nothing beyond that load even on the throw path.
bool capture_armed();

/// Process-wide count of throws whose backtrace was captured (armed throws).
std::uint64_t throws_captured();

/// RAII: arms throw-site capture for the scope's lifetime.  Nestable and
/// thread-safe (a process-wide counter); constructing with false is a no-op,
/// so campaign code can pass its provenance setting straight through.
class ScopedArm {
 public:
  explicit ScopedArm(bool arm = true);
  ~ScopedArm();
  ScopedArm(const ScopedArm&) = delete;
  ScopedArm& operator=(const ScopedArm&) = delete;

 private:
  bool armed_;
};

/// RAII: truncates this thread's captures at `frame_floor`, a stack address
/// inside the campaign runner's frame (pass the address of a local).  Frames
/// outside it — the sequential driver loop for jobs=1, the std::thread
/// trampoline for parallel workers — are scheduling context, not throw
/// provenance, and including them would make otherwise-identical throw
/// stacks hash to different ids across jobs values.  Cutting at the floor is
/// what lets interned stack ids ride in the canonical deterministic event
/// stream.  Nests per thread; no floor (the default) captures to the root.
class ScopedCaptureFloor {
 public:
  explicit ScopedCaptureFloor(const void* frame_floor);
  ~ScopedCaptureFloor();
  ScopedCaptureFloor(const ScopedCaptureFloor&) = delete;
  ScopedCaptureFloor& operator=(const ScopedCaptureFloor&) = delete;

 private:
  const void* prev_;
};

/// The calling thread's most recent captured throw, or nullptr when nothing
/// was captured on this thread.  The record stays valid until the thread's
/// next armed throw overwrites the slot.
const ThrowRecord* last_throw();

/// The type of the exception the calling thread has in flight at uncaught
/// level `level`: inside a destructor that runs during an unwind, level
/// std::uncaught_exceptions() names the exception unwinding it.  The raise
/// interposers (throw, `throw;`, std::rethrow_exception) record each raise's
/// type at the level it raises at, armed or not, so an exception thrown and
/// caught inside such a destructor does not rename the one unwinding it.
/// Null for level 0, for a level no raise has reached yet and past the
/// record's depth (16).  The record is never cleared, so it is right only
/// for raises that pass through the interposers: the executable's own, and
/// libstdc++.so's, which reach __cxa_throw through the dynamic linker
/// (WeaveTest.ExceptionRaisedInsideLibstdcxxIsNamed).  A library that binds
/// __cxa_throw to a private copy (-static-libstdc++) bypasses them, and its
/// exception reads as the last one raised at its level.
const std::type_info* in_flight_type(int level);

/// Matches the thread's pending record against an exception of type `type`:
/// when the record's type_info equals it, interns the captured stack into
/// the global table and returns its id; 0 when there is no matching record.
/// A rethrow does not re-enter __cxa_throw, so the record survives the
/// propagation of one exception through nested wrappers.  `serial_out`,
/// when non-null, receives the record's serial so a consumer can
/// deduplicate the nested wrappers one propagating exception passes through.
std::uint64_t throw_stack_of(const std::type_info* type,
                             std::uint64_t* serial_out = nullptr);

/// throw_stack_of the exception the innermost catch handler is handling
/// (must be called from inside one).
std::uint64_t current_throw_stack(std::uint64_t* serial_out = nullptr);

// --- symbolization (export time only; never on the throw path) -------------

/// One symbolized frame.  `symbol` is the demangled nearest dynamic symbol
/// (empty when dladdr cannot resolve the PC), `offset` the PC's distance
/// from it, `module` the containing object's path (empty when unknown).
struct Frame {
  const void* pc = nullptr;
  std::string symbol;
  std::string module;
  std::uintptr_t offset = 0;
};

/// Symbolizes one PC via dladdr + __cxa_demangle.  Results are interned in a
/// process-wide cache, so repeated throw sites cost one lookup.
Frame symbolize(const void* pc);

/// Human-readable form of one frame: "symbol+0xOFF" when resolved, "0xPC"
/// otherwise.
std::string frame_to_string(const Frame& frame);

/// Symbolizes the interned stack `id` (at most `max_frames` entries).  Empty
/// when the id is unknown or its frames were dropped at the table's
/// admission bound.
std::vector<std::string> symbolize_stack(std::uint64_t id,
                                         std::size_t max_frames = 16);

/// The representative throw site of stack `id`: the first frame that
/// symbolizes outside the capture machinery itself (fatomic::unwind, the
/// __cxa layer).  "(evicted)" when the table dropped the frames,
/// "(no stack)" for id 0.
std::string site_name(std::uint64_t id);

}  // namespace fatomic::unwind
