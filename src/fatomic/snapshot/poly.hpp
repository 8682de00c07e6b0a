// Registry of polymorphic (Base, Derived) pairs for capture and restore.
//
// The paper's Java prototype relies on runtime reflection to checkpoint
// objects through base-class references; in C++ we register each concrete
// class reachable through a polymorphic pointer with FAT_POLY(Base, Derived)
// (defined in restore.hpp).  Capture dispatches on typeid(*p); restore
// re-creates the derived object from the class name recorded in the
// pointee's object record.
#pragma once

#include <map>
#include <string>
#include <typeindex>
#include <typeinfo>
#include <utility>

namespace fatomic::snapshot {

class ArenaEncoder;
class Replayer;

/// Type-erased operations for one registered (Base, Derived) pair.  All
/// void* values are Base* in disguise.
struct PolyOps {
  const char* class_name;
  void (*encode)(const void* base_ptr, ArenaEncoder& e);
  void* (*create)();  // new Derived, returned as Base*
  /// Replays the object record at the replayer's cursor into the Derived.
  void (*restore)(void* base_ptr, Replayer& r);
};

class PolyRegistry {
 public:
  static PolyRegistry& instance();

  void add(std::type_index base, std::type_index dynamic,
           const PolyOps* ops);

  /// Lookup for capture: by the dynamic type of the pointee.
  const PolyOps* find(std::type_index base, std::type_index dynamic) const;

  /// Lookup for restore: by the class name recorded in the snapshot.
  const PolyOps* find(std::type_index base, const std::string& name) const;

 private:
  std::map<std::pair<std::type_index, std::type_index>, const PolyOps*>
      by_type_;
  std::map<std::pair<std::type_index, std::string>, const PolyOps*> by_name_;
};

}  // namespace fatomic::snapshot
