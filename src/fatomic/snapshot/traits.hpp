// Type traits used by the snapshot walkers to classify C++ types into the
// object-graph node kinds of Definition 1: primitives, objects, sequences
// and pointers.
#pragma once

#include <array>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace fatomic::snapshot::traits {

// --- primitives -----------------------------------------------------------

/// Leaf values of the object graph.  std::string is treated as a primitive
/// leaf: its characters carry no internal pointer structure worth modelling.
template <class T>
inline constexpr bool is_primitive_v =
    std::is_arithmetic_v<T> || std::is_enum_v<T> ||
    std::is_same_v<T, std::string>;

// --- smart pointers --------------------------------------------------------

template <class T>
struct is_unique_ptr : std::false_type {};
template <class T, class D>
struct is_unique_ptr<std::unique_ptr<T, D>> : std::true_type {};

template <class T>
struct is_shared_ptr : std::false_type {};
template <class T>
struct is_shared_ptr<std::shared_ptr<T>> : std::true_type {};

template <class T>
inline constexpr bool is_smart_ptr_v =
    is_unique_ptr<T>::value || is_shared_ptr<T>::value;

// --- sequence containers ---------------------------------------------------

template <class T>
struct is_sequence : std::false_type {};
template <class T, class A>
struct is_sequence<std::vector<T, A>> : std::true_type {};
template <class T, class A>
struct is_sequence<std::deque<T, A>> : std::true_type {};
template <class T, class A>
struct is_sequence<std::list<T, A>> : std::true_type {};

template <class T>
inline constexpr bool is_sequence_v = is_sequence<T>::value;

template <class T>
struct is_std_array : std::false_type {};
template <class T, std::size_t N>
struct is_std_array<std::array<T, N>> : std::true_type {};

template <class T>
inline constexpr bool is_std_array_v = is_std_array<T>::value;

// --- associative containers --------------------------------------------------

template <class T>
struct is_map : std::false_type {};
template <class K, class V, class C, class A>
struct is_map<std::map<K, V, C, A>> : std::true_type {};
template <class K, class V, class C, class A>
struct is_map<std::multimap<K, V, C, A>> : std::true_type {};

template <class T>
inline constexpr bool is_map_v = is_map<T>::value;

template <class T>
struct is_set : std::false_type {};
template <class K, class C, class A>
struct is_set<std::set<K, C, A>> : std::true_type {};
template <class K, class C, class A>
struct is_set<std::multiset<K, C, A>> : std::true_type {};

template <class T>
inline constexpr bool is_set_v = is_set<T>::value;

// --- other composites --------------------------------------------------------

template <class T>
struct is_optional : std::false_type {};
template <class T>
struct is_optional<std::optional<T>> : std::true_type {};

template <class T>
inline constexpr bool is_optional_v = is_optional<T>::value;

template <class T>
struct is_pair : std::false_type {};
template <class A, class B>
struct is_pair<std::pair<A, B>> : std::true_type {};

template <class T>
inline constexpr bool is_pair_v = is_pair<T>::value;

template <class T>
struct is_tuple : std::false_type {};
template <class... Ts>
struct is_tuple<std::tuple<Ts...>> : std::true_type {};

template <class T>
inline constexpr bool is_tuple_v = is_tuple<T>::value;

// --- shallow capturability check ---------------------------------------------
// True when T matches one of the walker dispatch branches.  Used to guard
// template instantiation on paths that are only reachable at runtime for
// other types (e.g. the static fallback after a polymorphic-registry hit).

namespace detail_fwd {
template <class T, class = void>
struct is_reflected_fwd : std::false_type {};
}  // namespace detail_fwd

template <class T>
inline constexpr bool is_walkable_v =
    is_primitive_v<T> || std::is_pointer_v<T> || is_smart_ptr_v<T> ||
    is_optional_v<T> || is_pair_v<T> || is_tuple_v<T> || is_sequence_v<T> ||
    is_std_array_v<T> || is_set_v<T> || is_map_v<T>;

}  // namespace fatomic::snapshot::traits
