// Object-graph capture into the named view (node.hpp): the entry point for
// diagnostics and tests that inspect a checkpoint node by node.  The
// wrappers keep the ArenaSnapshot itself (arena.hpp) and decode only when
// they need names.
#pragma once

#include "fatomic/snapshot/arena.hpp"

namespace fatomic::snapshot {

/// Captures the object graph of `root` and decodes it into an owning view.
template <class T>
Snapshot capture(const T& root) {
  return arena_capture(root).decode();
}

}  // namespace fatomic::snapshot
