// Name of the checkpoint representation, for tools that print it into run
// metadata.  There is one representation — the arena record stream
// (arena.hpp) — so this always reports "arena".
#pragma once

namespace fatomic::snapshot {

struct CheckpointRepresentation {};

constexpr CheckpointRepresentation default_backend() { return {}; }

constexpr const char* to_string(CheckpointRepresentation) { return "arena"; }

}  // namespace fatomic::snapshot
