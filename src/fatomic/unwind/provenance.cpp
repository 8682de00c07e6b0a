#include "fatomic/unwind/provenance.hpp"

#include "fatomic/unwind/internal.hpp"
#include "fatomic/unwind/stack_table.hpp"

#include <cxxabi.h>
#include <dlfcn.h>
#include <unwind.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>

namespace fatomic::unwind {

namespace {

thread_local ThrowRecord tl_record;

/// The type of each exception this thread has in flight, by uncaught level
/// (in_flight_type); entry 0 is unused.
constexpr int kInFlightDepth = 16;
thread_local const std::type_info* tl_in_flight[kInFlightDepth + 1] = {};

/// Stack address bounding this thread's captures (ScopedCaptureFloor);
/// 0 = capture to the root.
thread_local std::uintptr_t tl_floor = 0;

struct BacktraceState {
  const void** pc;
  std::size_t n;
  std::size_t skip;
  std::uintptr_t floor;
};

_Unwind_Reason_Code on_frame(_Unwind_Context* ctx, void* arg) {
  auto* st = static_cast<BacktraceState*>(arg);
  int ip_before_insn = 0;
  const _Unwind_Ptr ip = _Unwind_GetIPInfo(ctx, &ip_before_insn);
  if (ip == 0) return _URC_NO_REASON;
  // The stack grows down, so a frame whose CFA lies above the floor (a local
  // in the campaign runner's frame) belongs to the runner or its caller —
  // driver loop or worker trampoline, not throw provenance.
  if (st->floor != 0 &&
      static_cast<std::uintptr_t>(_Unwind_GetCFA(ctx)) > st->floor)
    return _URC_END_OF_STACK;
  if (st->skip > 0) {
    --st->skip;
    return _URC_NO_REASON;
  }
  if (st->n >= kMaxFrames) return _URC_END_OF_STACK;
  // A return address points at the instruction after the call; step back one
  // byte so symbolization lands inside the calling function, not past its
  // end when the call is the last instruction.
  const _Unwind_Ptr adjusted = ip_before_insn ? ip : ip - 1;
  st->pc[st->n++] = reinterpret_cast<const void*>(adjusted);
  return _URC_NO_REASON;
}

}  // namespace

namespace detail {

std::atomic<int> g_armed{0};
std::atomic<std::uint64_t> g_captured{0};

// noinline keeps the skip count below honest: the interposer's frame plus
// this one are the two capture-machinery frames above the throw site.
__attribute__((noinline)) void record_throw(void* obj,
                                            const std::type_info* type)
    noexcept {
  thread_local std::uint64_t serial = 0;
  ThrowRecord& rec = tl_record;
  rec.object = obj;
  rec.type = type;
  rec.serial = ++serial;
  BacktraceState st{rec.pc, 0, /*skip=*/2, tl_floor};
  _Unwind_Backtrace(&on_frame, &st);
  rec.depth = st.n;
  g_captured.fetch_add(1, std::memory_order_relaxed);
}

void note_raise(const std::type_info* type) noexcept {
  const int level = std::uncaught_exceptions() + 1;
  if (level <= kInFlightDepth) tl_in_flight[level] = type;
}

void note_rethrow() noexcept {
  note_raise(abi::__cxa_current_exception_type());
}

}  // namespace detail

bool available() {
  return detail::interposer_linked() && detail::real_throw_ok();
}

bool capture_armed() {
  return detail::g_armed.load(std::memory_order_relaxed) != 0;
}

std::uint64_t throws_captured() {
  return detail::g_captured.load(std::memory_order_relaxed);
}

ScopedArm::ScopedArm(bool arm) : armed_(arm) {
  if (armed_) detail::g_armed.fetch_add(1, std::memory_order_relaxed);
}

ScopedArm::~ScopedArm() {
  if (armed_) detail::g_armed.fetch_sub(1, std::memory_order_relaxed);
}

ScopedCaptureFloor::ScopedCaptureFloor(const void* frame_floor)
    : prev_(reinterpret_cast<const void*>(tl_floor)) {
  tl_floor = reinterpret_cast<std::uintptr_t>(frame_floor);
}

ScopedCaptureFloor::~ScopedCaptureFloor() {
  tl_floor = reinterpret_cast<std::uintptr_t>(prev_);
}

const ThrowRecord* last_throw() {
  return tl_record.serial == 0 ? nullptr : &tl_record;
}

const std::type_info* in_flight_type(int level) {
  return level >= 1 && level <= kInFlightDepth ? tl_in_flight[level] : nullptr;
}

std::uint64_t throw_stack_of(const std::type_info* type,
                             std::uint64_t* serial_out) {
  const ThrowRecord& rec = tl_record;
  if (rec.serial == 0 || rec.depth == 0) return 0;
  // The slot holds this thread's *last* armed throw; it describes the
  // exception of `type` only when the types line up.
  if (type == nullptr || rec.type == nullptr) return 0;
  if (*type != *rec.type) return 0;
  if (serial_out != nullptr) *serial_out = rec.serial;
  return global_stack_table().intern(rec.pc, rec.depth);
}

std::uint64_t current_throw_stack(std::uint64_t* serial_out) {
  return throw_stack_of(abi::__cxa_current_exception_type(), serial_out);
}

// --- symbolization ---------------------------------------------------------

namespace {

std::mutex g_symbol_mu;
std::map<const void*, Frame>& symbol_cache() {
  static std::map<const void*, Frame> cache;
  return cache;
}

Frame resolve(const void* pc) {
  Frame f;
  f.pc = pc;
  Dl_info info{};
  if (dladdr(const_cast<void*>(pc), &info) != 0) {
    if (info.dli_fname != nullptr) f.module = info.dli_fname;
    if (info.dli_sname != nullptr) {
      int status = 0;
      char* demangled =
          abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
      f.symbol = (status == 0 && demangled != nullptr) ? demangled
                                                       : info.dli_sname;
      std::free(demangled);
      f.offset = reinterpret_cast<std::uintptr_t>(pc) -
                 reinterpret_cast<std::uintptr_t>(info.dli_saddr);
    } else if (info.dli_fbase != nullptr) {
      // No covering dynamic symbol (static / anonymous-namespace function):
      // fall back to a module-relative offset.  Unlike the raw PC it is
      // stable across ASLR — provenance reports from two executions of the
      // same binary stay byte-identical — and feeds addr2line directly.
      f.offset = reinterpret_cast<std::uintptr_t>(pc) -
                 reinterpret_cast<std::uintptr_t>(info.dli_fbase);
    }
  }
  return f;
}

}  // namespace

Frame symbolize(const void* pc) {
  std::lock_guard<std::mutex> lock(g_symbol_mu);
  auto& cache = symbol_cache();
  auto it = cache.find(pc);
  if (it != cache.end()) return it->second;
  Frame f = resolve(pc);
  cache.emplace(pc, f);
  return f;
}

std::string frame_to_string(const Frame& frame) {
  char buf[32];
  if (!frame.symbol.empty()) {
    std::snprintf(buf, sizeof(buf), "+0x%llx",
                  static_cast<unsigned long long>(frame.offset));
    return frame.symbol + buf;
  }
  if (!frame.module.empty()) {
    // Module-relative (ASLR-stable): "<binary>+0xOFF", addr2line-ready.
    std::snprintf(buf, sizeof(buf), "+0x%llx",
                  static_cast<unsigned long long>(frame.offset));
    const std::size_t slash = frame.module.find_last_of('/');
    return (slash == std::string::npos ? frame.module
                                       : frame.module.substr(slash + 1)) +
           buf;
  }
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(
                    reinterpret_cast<std::uintptr_t>(frame.pc)));
  return buf;
}

namespace {

/// Frames inside the capture machinery, the unwinder's own entry points, or
/// the injection runtime are not useful throw sites: an injected exception's
/// meaningful origin is the wrapped subject frame the injector fired in, not
/// the weave plumbing above it.
bool internal_frame(const Frame& f) {
  const std::string& s = f.symbol;
  return s.find("fatomic::unwind") != std::string::npos ||
         s.find("fatomic::weave") != std::string::npos ||
         s.find("fatomic::detect") != std::string::npos ||
         s.find("std::_Function_handler") != std::string::npos ||
         s.find("std::function") != std::string::npos ||
         s.compare(0, 5, "__cxa") == 0 ||
         s.compare(0, 7, "_Unwind") == 0;
}

}  // namespace

std::vector<std::string> symbolize_stack(std::uint64_t id,
                                         std::size_t max_frames) {
  std::vector<std::string> out;
  if (id == 0) return out;
  const std::vector<const void*> pcs = global_stack_table().lookup(id);
  for (const void* pc : pcs) {
    if (out.size() >= max_frames) break;
    out.push_back(frame_to_string(symbolize(pc)));
  }
  return out;
}

std::string site_name(std::uint64_t id) {
  if (id == 0) return "(no stack)";
  const std::vector<const void*> pcs = global_stack_table().lookup(id);
  if (pcs.empty()) return "(evicted)";
  // Prefer the innermost frame that both symbolizes and lies outside the
  // injection/capture machinery; an unresolved PC (static or
  // anonymous-namespace function, absent from .dynsym) is only the site of
  // last resort, since a raw address names nothing.
  for (const void* pc : pcs) {
    const Frame f = symbolize(pc);
    if (f.symbol.empty() || internal_frame(f)) continue;
    return frame_to_string(f);
  }
  return frame_to_string(symbolize(pcs.front()));
}

}  // namespace fatomic::unwind
