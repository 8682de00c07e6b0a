// Shared fixture types for the fatomic test suites: reflected classes
// covering primitives, containers, owned/alias pointers, smart pointers,
// cycles and polymorphism.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "fatomic/reflect/reflect.hpp"

namespace testing_types {

struct Plain {
  int i = 0;
  double d = 0.0;
  bool b = false;
  std::string s;
};

struct Nested {
  Plain inner;
  std::vector<int> values;
  std::map<std::string, int> table;
  std::optional<int> opt;
};

/// Singly linked node with an *owned* raw next pointer.  Per the restore
/// conventions the node destructor does not cascade; owners free iteratively.
struct Link {
  int value = 0;
  Link* next = nullptr;
};

struct LinkList {
  Link* head = nullptr;  // owned
  int size = 0;

  ~LinkList() {
    Link* cur = head;
    while (cur != nullptr) {
      Link* next = cur->next;
      delete cur;
      cur = next;
    }
  }
  LinkList() = default;
  LinkList(const LinkList&) = delete;
  LinkList& operator=(const LinkList&) = delete;

  void push_front(int v) {
    head = new Link{v, head};
    ++size;
  }
};

/// Aliasing: two raw pointers into the same graph.
struct AliasPair {
  std::unique_ptr<Plain> owner;
  Plain* alias = nullptr;  // non-owned; may point at *owner or elsewhere
};

/// Cycle through owned raw pointers: a ring of nodes.
struct RingNode {
  int value = 0;
  RingNode* next = nullptr;  // owned edge, forms a cycle
};

struct Ring {
  RingNode* entry = nullptr;  // owned
  int count = 0;

  ~Ring() { clear(); }
  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  void insert(int v) {
    auto* n = new RingNode{v, nullptr};
    if (entry == nullptr) {
      n->next = n;
      entry = n;
    } else {
      n->next = entry->next;
      entry->next = n;
    }
    ++count;
  }

  void clear() {
    if (entry == nullptr) return;
    RingNode* cur = entry->next;
    while (cur != entry) {
      RingNode* next = cur->next;
      delete cur;
      cur = next;
    }
    delete entry;
    entry = nullptr;
    count = 0;
  }
};

/// Reference-counted chain via std::shared_ptr.
struct RcNode {
  int value = 0;
  std::shared_ptr<RcNode> next;
};

struct RcList {
  std::shared_ptr<RcNode> head;
  int size = 0;

  void push_front(int v) {
    auto n = std::make_shared<RcNode>();
    n->value = v;
    n->next = head;
    head = n;
    ++size;
  }
};

/// Polymorphic hierarchy.
struct Shape {
  virtual ~Shape() = default;
  int id = 0;
};

struct Circle : Shape {
  double radius = 0.0;
};

struct Rect : Shape {
  double w = 0.0;
  double h = 0.0;
};

struct Drawing {
  std::vector<std::unique_ptr<Shape>> shapes;
  std::string title;
};

/// Shared ownership diamond: two shared_ptrs to one pointee.
struct SharedDiamond {
  std::shared_ptr<Plain> left;
  std::shared_ptr<Plain> right;  // may alias left
};

}  // namespace testing_types

FAT_REFLECT(testing_types::Plain, FAT_FIELD(testing_types::Plain, i),
            FAT_FIELD(testing_types::Plain, d),
            FAT_FIELD(testing_types::Plain, b),
            FAT_FIELD(testing_types::Plain, s));

FAT_REFLECT(testing_types::Nested, FAT_FIELD(testing_types::Nested, inner),
            FAT_FIELD(testing_types::Nested, values),
            FAT_FIELD(testing_types::Nested, table),
            FAT_FIELD(testing_types::Nested, opt));

FAT_REFLECT(testing_types::Link, FAT_FIELD(testing_types::Link, value),
            FAT_OWNED(testing_types::Link, next));

FAT_REFLECT(testing_types::LinkList, FAT_OWNED(testing_types::LinkList, head),
            FAT_FIELD(testing_types::LinkList, size));

FAT_REFLECT(testing_types::AliasPair,
            FAT_FIELD(testing_types::AliasPair, owner),
            FAT_FIELD(testing_types::AliasPair, alias));

FAT_REFLECT(testing_types::RingNode,
            FAT_FIELD(testing_types::RingNode, value),
            FAT_OWNED(testing_types::RingNode, next));

FAT_REFLECT(testing_types::Ring, FAT_OWNED(testing_types::Ring, entry),
            FAT_FIELD(testing_types::Ring, count));

FAT_REFLECT(testing_types::RcNode, FAT_FIELD(testing_types::RcNode, value),
            FAT_FIELD(testing_types::RcNode, next));

FAT_REFLECT(testing_types::RcList, FAT_FIELD(testing_types::RcList, head),
            FAT_FIELD(testing_types::RcList, size));

FAT_REFLECT(testing_types::Circle, FAT_FIELD(testing_types::Circle, id),
            FAT_FIELD(testing_types::Circle, radius));

FAT_REFLECT(testing_types::Rect, FAT_FIELD(testing_types::Rect, id),
            FAT_FIELD(testing_types::Rect, w),
            FAT_FIELD(testing_types::Rect, h));

FAT_REFLECT(testing_types::Drawing,
            FAT_FIELD(testing_types::Drawing, shapes),
            FAT_FIELD(testing_types::Drawing, title));

FAT_REFLECT(testing_types::SharedDiamond,
            FAT_FIELD(testing_types::SharedDiamond, left),
            FAT_FIELD(testing_types::SharedDiamond, right));
