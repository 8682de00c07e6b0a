// Generated-graph corpus for the restore path.  Each seed builds an object
// graph whose *shape* is random over the fixture types, applies random
// mutations and rolls back, and checks the property the atomicity wrapper
// rests on: capture -> mutate -> restore -> capture gives back the
// checkpoint byte for byte.  Every seed restores the same checkpoint at
// least twice, as a retried protected call does.
//
// The shapes cover owned raw chains and cycles (two owned edges may share a
// cell), shared_ptr rings of mixed dynamic types, one object held as
// shared_ptr<Base> and shared_ptr<Derived> in both field orders, FAT_POLY
// pointees, aliases that precede their targets, external aliases restored in
// place, self-aliases, aliases into sequence elements and into composite
// map and set keys, optionals, vector<bool>, nested maps, sets and
// sequences, and NaN, -0.0 and denormal leaves.
//
// Every mutated graph is also read against the tests' decoded node table
// (testing/decoded.hpp), the oracle: the byte compare says equal exactly
// when the tables are equal, and snapshot::diff, which walks the record
// streams, names exactly what the table diff names.
//
// After its round trips each seed also fails a restore on purpose: a Cell
// construction countdown makes the k-th cell the replay builds throw, and
// the RestoreError property must hold — the half-restored graph can still be
// captured (under ASan: it reaches no freed pointee), and the same
// checkpoint then restores in full.
//
// ctest runs the fixed corpus (seeds 1..kCorpusSeeds).  A longer sweep takes
// an inclusive seed range on the command line; gtest flags still apply:
//   test_graph_corpus 1 3000
// Freeze every seed that ever fails in kRegressionSeeds.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fatomic/common/error.hpp"
#include "fatomic/snapshot/diff.hpp"
#include "fatomic/snapshot/restore.hpp"
#include "testing/decoded.hpp"
#include "testing/types.hpp"

namespace snap = fatomic::snapshot;
using testing_types::Circle;
using testing_types::Rect;
using testing_types::Shape;

namespace corpus {

/// Cell construction countdown, disarmed (0) by default: armed at k, the
/// k-th Cell constructed from then on throws, as an allocation that fails
/// in the middle of a restore would.
std::uint32_t g_cell_countdown = 0;

/// A node of the owned raw-pointer graph: `next` owns the next cell (a
/// chain, or a cycle when it links back), `peer` is a plain alias.
struct Cell {
  Cell() {
    if (g_cell_countdown != 0 && --g_cell_countdown == 0)
      throw std::bad_alloc();
  }

  int value = 0;
  double weight = 0.0;
  Cell* next = nullptr;  // owned
  Cell* peer = nullptr;  // a graph cell, an external cell, itself or null
};

/// A shared_ptr graph node; Heavy is its registered polymorphic subclass.
struct Shared {
  virtual ~Shared() = default;
  int value = 0;
  std::shared_ptr<Shared> next;
};

struct Heavy : Shared {
  double weight = 0.0;
  std::vector<int> extra;
};

enum class Mood : std::uint8_t { Calm, Busy, Lost };

/// One leaf of every primitive kind.
struct Leaves {
  bool flag = false;
  char c = 'a';
  Mood mood = Mood::Calm;
  std::int16_t small = 0;
  std::uint64_t big = 0;
  float f = 0.0f;
  double d = 0.0;
  std::string s;
};

/// The generated root.  Field order matters to the shapes: `early_cell` and
/// `early_int` are aliases walked before their targets, so their pointee
/// records sit inline under the alias and the owner holds a back-reference.
struct Universe {
  Cell* early_cell = nullptr;  // alias into the owned graph
  int* early_int = nullptr;    // alias to an element of `ints`
  Cell* chain = nullptr;       // owned
  Cell* spare = nullptr;       // owned; may share cells with `chain`
  Cell* outside = nullptr;     // alias to a cell the harness owns
  Universe* self = nullptr;    // alias to the root
  std::vector<int> ints;
  int* into_ints = nullptr;
  std::deque<std::string> words;
  std::list<double> reals;
  std::vector<bool> bits;
  std::array<float, 3> triple{};
  std::optional<Leaves> maybe;
  Leaves leaves;
  std::map<std::string, std::vector<std::set<int>>> nested;
  std::vector<std::map<int, std::string>> tables;
  std::multimap<int, std::string> multi;
  std::multiset<int> bag;
  std::map<std::pair<int, int>, int> keyed;
  int* into_key = nullptr;  // alias into a key of `keyed`
  std::set<std::pair<int, int>> pairs;
  int* into_set = nullptr;  // alias into an element of `pairs`
  std::vector<Cell*> cell_refs;  // aliases held in a sequence
  std::shared_ptr<Shared> ring;
  std::shared_ptr<Shared> as_base;  // one Heavy held both ways ...
  std::shared_ptr<Heavy> as_derived;
  std::shared_ptr<Heavy> derived_first;  // ... in both field orders
  std::shared_ptr<Shared> base_second;
  std::vector<std::unique_ptr<Shape>> shapes;

  Universe() = default;
  Universe(const Universe&) = delete;
  Universe& operator=(const Universe&) = delete;
  ~Universe();
};

}  // namespace corpus

FAT_REFLECT(corpus::Cell, FAT_FIELD(corpus::Cell, value),
            FAT_FIELD(corpus::Cell, weight), FAT_OWNED(corpus::Cell, next),
            FAT_FIELD(corpus::Cell, peer));
FAT_REFLECT(corpus::Shared, FAT_FIELD(corpus::Shared, value),
            FAT_FIELD(corpus::Shared, next));
FAT_REFLECT(corpus::Heavy, FAT_FIELD(corpus::Heavy, value),
            FAT_FIELD(corpus::Heavy, next), FAT_FIELD(corpus::Heavy, weight),
            FAT_FIELD(corpus::Heavy, extra));
FAT_REFLECT(corpus::Leaves, FAT_FIELD(corpus::Leaves, flag),
            FAT_FIELD(corpus::Leaves, c), FAT_FIELD(corpus::Leaves, mood),
            FAT_FIELD(corpus::Leaves, small), FAT_FIELD(corpus::Leaves, big),
            FAT_FIELD(corpus::Leaves, f), FAT_FIELD(corpus::Leaves, d),
            FAT_FIELD(corpus::Leaves, s));
FAT_REFLECT(corpus::Universe, FAT_FIELD(corpus::Universe, early_cell),
            FAT_FIELD(corpus::Universe, early_int),
            FAT_OWNED(corpus::Universe, chain),
            FAT_OWNED(corpus::Universe, spare),
            FAT_FIELD(corpus::Universe, outside),
            FAT_FIELD(corpus::Universe, self),
            FAT_FIELD(corpus::Universe, ints),
            FAT_FIELD(corpus::Universe, into_ints),
            FAT_FIELD(corpus::Universe, words),
            FAT_FIELD(corpus::Universe, reals),
            FAT_FIELD(corpus::Universe, bits),
            FAT_FIELD(corpus::Universe, triple),
            FAT_FIELD(corpus::Universe, maybe),
            FAT_FIELD(corpus::Universe, leaves),
            FAT_FIELD(corpus::Universe, nested),
            FAT_FIELD(corpus::Universe, tables),
            FAT_FIELD(corpus::Universe, multi),
            FAT_FIELD(corpus::Universe, bag),
            FAT_FIELD(corpus::Universe, keyed),
            FAT_FIELD(corpus::Universe, into_key),
            FAT_FIELD(corpus::Universe, pairs),
            FAT_FIELD(corpus::Universe, into_set),
            FAT_FIELD(corpus::Universe, cell_refs),
            FAT_FIELD(corpus::Universe, ring),
            FAT_FIELD(corpus::Universe, as_base),
            FAT_FIELD(corpus::Universe, as_derived),
            FAT_FIELD(corpus::Universe, derived_first),
            FAT_FIELD(corpus::Universe, base_second),
            FAT_FIELD(corpus::Universe, shapes));
using corpus::Heavy;
FAT_POLY(corpus::Shared, Heavy);
FAT_POLY(Shape, Circle);
FAT_POLY(Shape, Rect);

namespace corpus {

/// Every cell reachable through owned edges, each once.
std::vector<Cell*> owned_cells(const Universe& u) {
  std::vector<Cell*> out;
  std::set<Cell*> seen;
  for (Cell* c : {u.chain, u.spare})
    while (c != nullptr && seen.insert(c).second) {
      out.push_back(c);
      c = c->next;
    }
  return out;
}

/// Breaks every shared_ptr cycle reachable from `u`, so the nodes a
/// mutation or a restore drops are freed.
void open_rings(Universe& u) {
  std::set<Shared*> seen;
  std::vector<Shared*> nodes;
  for (Shared* s : {u.ring.get(), u.as_base.get(),
                    static_cast<Shared*>(u.as_derived.get()),
                    static_cast<Shared*>(u.derived_first.get()),
                    u.base_second.get()})
    while (s != nullptr && seen.insert(s).second) {
      nodes.push_back(s);
      s = s->next.get();
    }
  for (Shared* s : nodes)
    if (s->next != nullptr && seen.count(s->next.get()) != 0 &&
        s->next.get() == u.ring.get())
      s->next.reset();
}

Universe::~Universe() {
  for (Cell* c : owned_cells(*this)) delete c;
  open_rings(*this);
}

/// Seeded choices.  `%` on mt19937 output, not <random> distributions, so a
/// seed draws the same graph with every standard library.
class Rng {
 public:
  explicit Rng(std::uint32_t seed) : gen_(seed) {}
  std::uint32_t below(std::uint32_t n) { return n == 0 ? 0 : gen_() % n; }
  bool coin() { return (gen_() & 1u) != 0; }
  template <class T>
  T& pick(std::vector<T>& v) {
    return v[below(static_cast<std::uint32_t>(v.size()))];
  }

  double real() {
    static const std::array<double, 8> kReals = {
        0.0, -0.0, 1.5, -2.25,
        std::numeric_limits<double>::quiet_NaN(),
        std::bit_cast<double>(std::uint64_t{0x7FF8'0000'0000'BEEFull}),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::infinity()};
    return kReals[below(kReals.size())];
  }
  float real32() {
    static const std::array<float, 5> kReals = {
        0.0f, -0.0f, 0.5f, std::numeric_limits<float>::denorm_min(),
        std::numeric_limits<float>::quiet_NaN()};
    return kReals[below(kReals.size())];
  }
  std::string word() {
    static const std::array<const char*, 5> kWords = {"", "a", "bb",
                                                      "journal", "x;y"};
    std::string w = kWords[below(kWords.size())];
    if (below(6) == 0) w.push_back('\0');  // embedded NUL
    return w;
  }
  int small() { return static_cast<int>(below(7)) - 3; }

 private:
  std::mt19937 gen_;
};

/// Harness-owned state around one Universe: the cells external aliases
/// point at, and the cells mutations cut out of the owned graph.
struct Harness {
  Rng rng;
  std::deque<Cell> externals;  // stable addresses
  std::vector<std::unique_ptr<Cell>> graveyard;
  Universe u;

  explicit Harness(std::uint32_t seed) : rng(seed), externals(3) {
    for (Cell& e : externals) e.value = rng.small();
    build();
  }

  Cell* any_cell(bool allow_external) {
    std::vector<Cell*> cells = owned_cells(u);
    const std::uint32_t roll = rng.below(8);
    if (roll == 0) return nullptr;
    if ((roll == 1 || cells.empty()) && allow_external)
      return &externals[rng.below(3)];
    if (cells.empty()) return nullptr;
    return rng.pick(cells);
  }

  Cell* new_cell() {
    auto* c = new Cell;
    c->value = rng.small();
    c->weight = rng.real();
    return c;
  }

  Leaves leaves() {
    Leaves l;
    l.flag = rng.coin();
    l.c = static_cast<char>('a' + rng.below(26));
    l.mood = static_cast<Mood>(rng.below(3));
    l.small = static_cast<std::int16_t>(rng.small() * 1000);
    l.big = std::uint64_t{0xFFFF'FFFF'FFFF'FFF0ull} + rng.below(16);
    l.f = rng.real32();
    l.d = rng.real();
    l.s = rng.word();
    return l;
  }

  std::shared_ptr<Shared> shared_node() {
    if (rng.coin()) {
      auto h = std::make_shared<Heavy>();
      h->weight = rng.real();
      for (std::uint32_t i = rng.below(3); i > 0; --i)
        h->extra.push_back(rng.small());
      h->value = rng.small();
      return h;
    }
    auto s = std::make_shared<Shared>();
    s->value = rng.small();
    return s;
  }

  /// A ring of 0..3 nodes; it closes with even odds.
  std::shared_ptr<Shared> new_ring() {
    const std::uint32_t n = rng.below(4);
    if (n == 0) return nullptr;
    std::shared_ptr<Shared> head = shared_node();
    Shared* tail = head.get();
    for (std::uint32_t i = 1; i < n; ++i) {
      tail->next = shared_node();
      tail = tail->next.get();
    }
    if (rng.coin()) tail->next = head;
    return head;
  }

  std::unique_ptr<Shape> shape() {
    if (rng.coin()) {
      auto c = std::make_unique<Circle>();
      c->id = rng.small();
      c->radius = rng.real();
      return c;
    }
    auto r = std::make_unique<Rect>();
    r->id = rng.small();
    r->w = rng.real();
    r->h = rng.real();
    return r;
  }

  void repoint_int_aliases() {
    u.into_ints = !u.ints.empty() && rng.coin()
                      ? &u.ints[rng.below(static_cast<std::uint32_t>(u.ints.size()))]
                      : nullptr;
    u.early_int = !u.ints.empty() && rng.coin() ? &u.ints.back() : nullptr;
  }
  void repoint_key_alias() {
    u.into_key = nullptr;
    if (u.keyed.empty() || !rng.coin()) return;
    auto it = std::next(u.keyed.begin(),
                        rng.below(static_cast<std::uint32_t>(u.keyed.size())));
    const int& member = rng.coin() ? it->first.first : it->first.second;
    u.into_key = const_cast<int*>(&member);
  }
  void repoint_set_alias() {
    u.into_set = nullptr;
    if (u.pairs.empty() || !rng.coin()) return;
    auto it = std::next(u.pairs.begin(),
                        rng.below(static_cast<std::uint32_t>(u.pairs.size())));
    u.into_set = const_cast<int*>(rng.coin() ? &it->first : &it->second);
  }
  /// One Heavy held both as shared_ptr<Shared> and shared_ptr<Heavy>, or two
  /// unrelated objects, or nothing.
  template <class BaseHolder, class DerivedHolder>
  void hold_both_ways(BaseHolder& base, DerivedHolder& derived) {
    switch (rng.below(3)) {
      case 0: {
        auto h = std::make_shared<Heavy>();
        h->value = rng.small();
        h->weight = rng.real();
        base = h;
        derived = h;
        break;
      }
      case 1:
        base = shared_node();
        derived = std::make_shared<Heavy>();
        break;
      default:
        base = nullptr;
        derived = nullptr;
    }
  }

  void build() {
    // Owned chain, possibly closed into a cycle; `spare` shares a cell of it
    // or owns a short chain of its own that may run into it.
    std::vector<Cell*> cells;
    for (std::uint32_t i = rng.below(6); i > 0; --i) {
      Cell* c = new_cell();
      if (!cells.empty()) cells.back()->next = c;
      cells.push_back(c);
    }
    if (!cells.empty()) {
      u.chain = cells.front();
      if (rng.coin()) cells.back()->next = rng.pick(cells);
    }
    switch (rng.below(3)) {
      case 0:
        u.spare = cells.empty() ? nullptr : rng.pick(cells);
        break;
      case 1:
        u.spare = new_cell();
        if (!cells.empty() && rng.coin()) u.spare->next = rng.pick(cells);
        break;
      default:
        break;
    }
    for (Cell* c : owned_cells(u)) {
      const std::uint32_t roll = rng.below(4);
      c->peer = roll == 0 ? c : any_cell(/*allow_external=*/true);
    }
    for (Cell& e : externals)
      e.peer = rng.coin() ? &externals[rng.below(3)] : nullptr;
    u.early_cell = any_cell(/*allow_external=*/false);
    u.outside = rng.coin() ? &externals[rng.below(3)] : nullptr;
    u.self = rng.coin() ? &u : nullptr;

    for (std::uint32_t i = rng.below(5); i > 0; --i)
      u.ints.push_back(rng.small());
    repoint_int_aliases();
    for (std::uint32_t i = rng.below(4); i > 0; --i)
      u.words.push_back(rng.word());
    for (std::uint32_t i = rng.below(4); i > 0; --i)
      u.reals.push_back(rng.real());
    for (std::uint32_t i = rng.below(11); i > 0; --i)
      u.bits.push_back(rng.coin());
    for (float& f : u.triple) f = rng.real32();
    if (rng.coin()) u.maybe = leaves();
    u.leaves = leaves();
    for (std::uint32_t i = rng.below(4); i > 0; --i) {
      std::vector<std::set<int>>& sets = u.nested[rng.word()];
      for (std::uint32_t j = rng.below(3); j > 0; --j) {
        std::set<int> s;
        for (std::uint32_t k = rng.below(4); k > 0; --k) s.insert(rng.small());
        sets.push_back(std::move(s));
      }
    }
    for (std::uint32_t i = rng.below(3); i > 0; --i) {
      std::map<int, std::string> t;
      for (std::uint32_t j = rng.below(3); j > 0; --j)
        t[rng.small()] = rng.word();
      u.tables.push_back(std::move(t));
    }
    for (std::uint32_t i = rng.below(5); i > 0; --i) {
      const int key = static_cast<int>(rng.below(3));
      u.multi.emplace(key, rng.word());
    }
    for (std::uint32_t i = rng.below(5); i > 0; --i) u.bag.insert(rng.small());
    for (std::uint32_t i = rng.below(4); i > 0; --i)
      u.keyed[{rng.small(), rng.small()}] = rng.small();
    repoint_key_alias();
    for (std::uint32_t i = rng.below(4); i > 0; --i)
      u.pairs.insert({rng.small(), rng.small()});
    repoint_set_alias();
    for (std::uint32_t i = rng.below(4); i > 0; --i)
      u.cell_refs.push_back(any_cell(/*allow_external=*/true));
    u.ring = new_ring();
    hold_both_ways(u.as_base, u.as_derived);
    hold_both_ways(u.base_second, u.derived_first);
    for (std::uint32_t i = rng.below(3); i > 0; --i)
      u.shapes.push_back(shape());
  }

  /// One random mutation.  Mutations keep the harness's own invariants:
  /// owned edges point at graph cells, external cells own nothing, aliases
  /// into containers never dangle, and no shared ring is dropped closed.
  void mutate() {
    const std::vector<Cell*> before = owned_cells(u);
    switch (rng.below(24)) {
      case 0:
        if (Cell* c = any_cell(false)) c->value += 1 + static_cast<int>(rng.below(5));
        break;
      case 1:
        if (Cell* c = any_cell(false)) c->weight = rng.real();
        break;
      case 2:
        if (Cell* c = any_cell(false)) c->peer = any_cell(true);
        break;
      case 3: {
        Cell* c = new_cell();
        c->next = u.chain;
        u.chain = c;
        break;
      }
      case 4:
        if (Cell* c = any_cell(false)) c->next = nullptr;
        break;
      case 5:
        if (Cell* c = any_cell(false)) c->next = any_cell(false);
        break;
      case 6:
        u.spare = rng.coin() ? any_cell(false) : new_cell();
        break;
      case 7:
        externals[rng.below(3)].value += 1;
        externals[rng.below(3)].peer =
            rng.coin() ? &externals[rng.below(3)] : nullptr;
        break;
      case 8:
        u.outside = rng.coin() ? &externals[rng.below(3)] : nullptr;
        u.early_cell = any_cell(true);
        u.self = u.self == nullptr ? &u : nullptr;
        break;
      case 9:
        if (!u.ints.empty() && rng.coin())
          u.ints.pop_back();
        else
          u.ints.push_back(rng.small());
        if (!u.ints.empty()) u.ints.front() += 1;
        repoint_int_aliases();
        break;
      case 10:
        u.words.push_front(rng.word());
        if (!u.reals.empty()) u.reals.back() = -u.reals.back();
        u.reals.push_back(rng.real());
        break;
      case 11:
        u.bits.push_back(rng.coin());
        u.bits.front() = !u.bits.front();
        u.triple[rng.below(3)] = rng.real32();
        break;
      case 12:
        if (u.maybe.has_value() && rng.coin())
          u.maybe.reset();
        else
          u.maybe = leaves();
        break;
      case 13:
        u.leaves = leaves();
        u.leaves.d = -0.0;
        break;
      case 14:
        if (!u.nested.empty() && rng.coin())
          u.nested.erase(u.nested.begin());
        else
          u.nested[rng.word()].push_back({rng.small()});
        break;
      case 15:
        if (!u.tables.empty()) u.tables.front()[rng.small()] = rng.word();
        u.tables.emplace_back();
        {
          const int key = static_cast<int>(rng.below(3));
          u.multi.emplace(key, rng.word());
        }
        u.bag.insert(rng.small());
        break;
      case 16:
        if (!u.keyed.empty() && rng.coin())
          u.keyed.erase(u.keyed.begin());
        else
          u.keyed[{rng.small(), rng.small()}] = rng.small();
        repoint_key_alias();
        break;
      case 17:
        if (!u.pairs.empty() && rng.coin())
          u.pairs.erase(std::prev(u.pairs.end()));
        else
          u.pairs.insert({rng.small(), rng.small()});
        repoint_set_alias();
        break;
      case 18:
        u.cell_refs.push_back(any_cell(true));
        if (!u.cell_refs.empty()) u.cell_refs.front() = any_cell(true);
        break;
      case 19:
        if (u.ring != nullptr) u.ring->value += 1;
        if (u.ring != nullptr && u.ring->next != nullptr)
          u.ring->next->value -= 1;
        break;
      case 20:
        open_rings(u);
        u.ring = new_ring();
        break;
      case 21:
        hold_both_ways(u.as_base, u.as_derived);
        hold_both_ways(u.base_second, u.derived_first);
        break;
      case 22:
        if (!u.shapes.empty() && rng.coin())
          u.shapes.pop_back();
        else
          u.shapes.push_back(shape());
        if (!u.shapes.empty()) u.shapes.front()->id += 1;
        break;
      default:
        if (u.as_derived != nullptr) u.as_derived->extra.push_back(rng.small());
        break;
    }
    // Cells the mutation cut out of the owned graph leave it for good: the
    // harness frees them, not a restore.
    const std::vector<Cell*> after = owned_cells(u);
    const std::set<Cell*> live(after.begin(), after.end());
    for (Cell* c : before)
      if (live.count(c) == 0) {
        c->next = nullptr;
        graveyard.emplace_back(c);
      }
  }
};

/// Where the checkpoint's aliases with a known home must point after a
/// restore: the external cell (by index), the root, and the element or key
/// member (by position) of `ints`, `keyed` and `pairs`.
struct AliasHomes {
  int outside = -1;
  bool self = false;
  int into_ints = -1;
  int into_key = -1;  // 2 * key index + member
  int into_set = -1;

  static AliasHomes of(const Harness& h) {
    AliasHomes a;
    const Universe& u = h.u;
    for (int i = 0; i < 3; ++i)
      if (u.outside == &h.externals[static_cast<std::size_t>(i)]) a.outside = i;
    a.self = u.self == &u;
    for (std::size_t i = 0; i < u.ints.size(); ++i)
      if (u.into_ints == &u.ints[i]) a.into_ints = static_cast<int>(i);
    int k = 0;
    for (const auto& [key, value] : u.keyed) {
      if (u.into_key == &key.first) a.into_key = 2 * k;
      if (u.into_key == &key.second) a.into_key = 2 * k + 1;
      ++k;
    }
    k = 0;
    for (const auto& p : u.pairs) {
      if (u.into_set == &p.first) a.into_set = 2 * k;
      if (u.into_set == &p.second) a.into_set = 2 * k + 1;
      ++k;
    }
    return a;
  }

  friend bool operator==(const AliasHomes&, const AliasHomes&) = default;
};

/// Restores that failed on purpose in this process (run_seed's last step).
std::uint32_t g_failed_restores = 0;

/// The record-stream diff names exactly what the table diff of the decoded
/// tables names, entry by entry, at the tightest limit and at the one
/// campaigns use; both are empty exactly when the bytes are equal.
void expect_diff_matches_table(const snap::ArenaSnapshot& a,
                               const snap::ArenaSnapshot& b) {
  const decoded::Snapshot ta = decoded::decode(a);
  const decoded::Snapshot tb = decoded::decode(b);
  for (const std::size_t limit : {std::size_t{1}, std::size_t{256}}) {
    SCOPED_TRACE("diff limit " + std::to_string(limit));
    const std::vector<snap::Difference> records = snap::diff(a, b, limit);
    const std::vector<snap::Difference> table = decoded::diff(ta, tb, limit);
    ASSERT_EQ(records.empty(), a.equals(b));
    ASSERT_EQ(records.size(), table.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      SCOPED_TRACE("diff entry " + std::to_string(i));
      ASSERT_EQ(records[i].path, table[i].path);
      ASSERT_EQ(records[i].before, table[i].before);
      ASSERT_EQ(records[i].after, table[i].after);
    }
  }
}

void run_seed(std::uint32_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  Harness h(seed);
  const snap::ArenaSnapshot cp = snap::arena_capture(h.u);
  const AliasHomes homes = AliasHomes::of(h);
  // Every owned cell of the checkpoint is built afresh by each restore.
  const auto cp_cells = static_cast<std::uint32_t>(owned_cells(h.u).size());
  // Byte equality and decoded-table equality agree on the checkpoint.
  ASSERT_TRUE(decoded::decode(cp).equals(decoded::capture(h.u)));

  const std::uint32_t rounds = 2 + h.rng.below(2);
  for (std::uint32_t round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    for (std::uint32_t i = 1 + h.rng.below(8); i > 0; --i) h.mutate();
    // On the mutated graph too, the bytes are equal exactly when the decoded
    // tables are: differing bytes never stand for an equal graph.
    const snap::ArenaSnapshot mutated = snap::arena_capture(h.u);
    ASSERT_EQ(cp.equals(mutated),
              decoded::decode(cp).equals(decoded::decode(mutated)))
        << "byte and decoded equality disagree on the mutated graph";
    ASSERT_NO_FATAL_FAILURE(expect_diff_matches_table(cp, mutated));
    open_rings(h.u);  // what the restore drops must not stay alive
    snap::restore(h.u, cp);
    ASSERT_TRUE(cp.equals(snap::arena_capture(h.u)))
        << "restore must reproduce the checkpoint byte for byte";
    ASSERT_TRUE(AliasHomes::of(h) == homes)
        << "an alias with a known home moved";
  }

  // The RestoreError property.  The countdown fires while the replay builds
  // the k-th of the checkpoint's cells (never, at k = cp_cells + 1).
  SCOPED_TRACE("failing restore");
  for (std::uint32_t i = 1 + h.rng.below(8); i > 0; --i) h.mutate();
  open_rings(h.u);
  const std::vector<Cell*> recorded = owned_cells(h.u);
  g_cell_countdown = 1 + h.rng.below(cp_cells + 1);
  bool failed = false;
  try {
    snap::restore(h.u, cp);
  } catch (const fatomic::RestoreError&) {
    failed = true;
  }
  g_cell_countdown = 0;
  if (failed) {
    ++g_failed_restores;
    // The half-restored graph reaches no freed pointee: the restore skipped
    // its deletions, and every fresh cell already hangs off its owner.
    (void)snap::arena_capture(h.u);
    // Those skipped deletions are the harness's to make: free the cells the
    // restore cut loose.  What still points at them is an alias, which the
    // next restore overwrites without reading.
    const std::vector<Cell*> owned = owned_cells(h.u);
    const std::set<Cell*> live(owned.begin(), owned.end());
    for (Cell* c : recorded)
      if (live.count(c) == 0) delete c;
  }
  open_rings(h.u);
  snap::restore(h.u, cp);
  ASSERT_TRUE(cp.equals(snap::arena_capture(h.u)))
      << "the checkpoint must restore in full after a failed restore";
}

std::uint32_t g_first_seed = 1;
constexpr std::uint32_t kCorpusSeeds = 300;
std::uint32_t g_last_seed = kCorpusSeeds;

/// Seeds that once failed.  They stay in every run.
///   9: the failing restore leaked the fresh cell it was replaying (its
///      owner got it only after the replay returned); LeakSanitizer.
constexpr std::array<std::uint32_t, 1> kRegressionSeeds = {9};

}  // namespace corpus

TEST(GraphCorpus, CaptureMutateRestoreRoundTrips) {
  corpus::g_failed_restores = 0;
  std::uint32_t seeds = 0;
  for (std::uint32_t seed = corpus::g_first_seed; seed <= corpus::g_last_seed;
       ++seed, ++seeds) {
    corpus::run_seed(seed);
    if (HasFailure()) return;  // the first failing seed is the one to freeze
  }
  EXPECT_GE(corpus::g_failed_restores, seeds / 10)
      << "too few seeds exercise the RestoreError property";
}

TEST(GraphCorpus, RegressionSeeds) {
  for (std::uint32_t seed : corpus::kRegressionSeeds) corpus::run_seed(seed);
}

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  if (argc == 3) {
    corpus::g_first_seed =
        static_cast<std::uint32_t>(std::strtoul(argv[1], nullptr, 10));
    corpus::g_last_seed =
        static_cast<std::uint32_t>(std::strtoul(argv[2], nullptr, 10));
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: %s [FIRST_SEED LAST_SEED]\n", argv[0]);
    return 2;
  }
  return RUN_ALL_TESTS();
}
