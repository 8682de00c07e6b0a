// Object-graph diff: explains *where* two checkpoints differ, as
// human-readable paths from the root.  The detection phase tells the
// programmer which method is failure non-atomic; the diff tells them what
// state the failed method left behind — the starting point for the "trivial
// modifications" of the paper's case study.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace fatomic::snapshot {

class ArenaSnapshot;

struct Difference {
  std::string path;    ///< e.g. "root.size" or "root.head->.next->.value"
  std::string before;  ///< rendering of the value in the first checkpoint
  std::string after;   ///< rendering of the value in the second checkpoint
};

/// Structural comparison with difference collection.  Walks both record
/// streams in parallel from the roots; reports at most `limit` differences
/// (the walk does not descend into values whose records already differ in
/// kind, type or arity).  Returns an empty vector iff a.equals(b).
std::vector<Difference> diff(const ArenaSnapshot& a, const ArenaSnapshot& b,
                             std::size_t limit = 16);

/// One difference as a one-line summary: "path: before != after".
std::string to_string(const Difference& d);

}  // namespace fatomic::snapshot
