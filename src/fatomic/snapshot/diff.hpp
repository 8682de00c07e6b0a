// Object-graph diff: explains *where* two snapshots differ, as
// human-readable paths from the root.  The detection phase tells the
// programmer which method is failure non-atomic; the diff tells them what
// state the failed method left behind — the starting point for the "trivial
// modifications" of the paper's case study.
#pragma once

#include <string>
#include <vector>

#include "fatomic/snapshot/node.hpp"

namespace fatomic::snapshot {

struct Difference {
  std::string path;    ///< e.g. "root.size_" or "root.head_->next->value"
  std::string before;  ///< rendering of the node in the first snapshot
  std::string after;   ///< rendering of the node in the second snapshot
};

/// Structural comparison with difference collection.  Walks both graphs in
/// parallel from the roots; reports at most `limit` differences (the walk
/// does not descend into subtrees whose parents already differ in kind or
/// arity).  Returns an empty vector iff a.equals(b).
std::vector<Difference> diff(const Snapshot& a, const Snapshot& b,
                             std::size_t limit = 16);

/// One difference as a one-line summary: "path: before != after".
std::string to_string(const Difference& d);

/// Convenience: the first difference as a one-line summary, or "" if equal.
std::string first_difference(const Snapshot& a, const Snapshot& b);

}  // namespace fatomic::snapshot
