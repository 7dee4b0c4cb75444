// fold.hpp — one field list per mergeable result, and the one fold over it.
//
// A Result lists its members once, in declaration order; a member pools
// unless it is wrapped in another fold:
//
//   using fields = stats::Fields<&Result::rtt_ms, stats::keep_max<&Result::route_km>>;
//
// merge(into, from) folds field by field in list order, and fails the build
// when the aggregate has a member its list misses; for_each_field(r, fn)
// calls fn(member name, value). Pool: a listed type folds recursively, a
// merge(const T&) member is called, numbers add, arrays and (equal-length:
// a sweep's cells share one shape) vectors fold element by element, and
// anything else calls merge(T&, const T&) found by ADL. keep_max keeps the
// larger value, keep_first the first cell's; append concatenates the vectors
// of an array of vectors pairwise; grow pools the common prefix, then appends;
// weighted<&R::m, &R::w> takes the w-weighted mean, so w is listed after m
// and still holds each cell's own weight when m folds.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <ranges>
#include <string_view>
#include <type_traits>
#include <utility>

namespace slp::stats {

enum class Fold { kPool, kMax, kFirst, kAppend, kGrow, kWeighted };

/// "rtt_ms" for &Result::rtt_ms, cut from the signature GCC and Clang print:
/// "...[with auto Member = &slp::...::Result::rtt_ms; ...]" or "[Member = ...]".
template <auto Member>
constexpr std::string_view member_name() {
  constexpr std::string_view signature = __PRETTY_FUNCTION__;
  constexpr std::string_view qualified =
      signature.substr(0, signature.find_first_of(";]", signature.find("Member = ")));
  return qualified.substr(qualified.rfind(':') + 1);
}

template <auto Member, Fold kFold = Fold::kPool, auto Weight = nullptr>
struct Field {
  static constexpr auto member = Member;
  static constexpr std::string_view name = member_name<Member>();
};

template <auto M>
inline constexpr Field<M, Fold::kMax> keep_max{};
template <auto M>
inline constexpr Field<M, Fold::kFirst> keep_first{};
template <auto M>
inline constexpr Field<M, Fold::kAppend> append{};
template <auto M>
inline constexpr Field<M, Fold::kGrow> grow{};
template <auto M, auto W>
inline constexpr Field<M, Fold::kWeighted, W> weighted{};

/// A Result's field list: member pointers (pooled) and the wrappers above.
template <auto... Entries>
struct Fields {};

template <typename T>
concept Folded = requires { typename T::fields; };

template <Folded T>
void merge(T& into, const T& from);

namespace detail {

/// Converts to any member type; only named in unevaluated operands.
struct AnyMember {
  template <typename T>
  operator T() const;
};

/// The number of members of aggregate T: the most initializers T{...} takes.
template <typename T, typename... Members>
constexpr std::size_t member_count() {
  if constexpr (requires { T{std::declval<Members>()..., AnyMember{}}; }) {
    return member_count<T, Members..., AnyMember>();
  } else {
    return sizeof...(Members);
  }
}

template <auto Entry>
constexpr auto as_field() {
  if constexpr (std::is_member_object_pointer_v<decltype(Entry)>) {
    return Field<Entry>{};
  } else {
    return Entry;
  }
}

template <typename T>
void pool(T& into, const T& from) {
  if constexpr (Folded<T>) {
    merge(into, from);
  } else if constexpr (requires { into.merge(from); }) {
    into.merge(from);
  } else if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
    into += from;
  } else if constexpr (std::ranges::random_access_range<T>) {
    static_assert(!std::is_same_v<std::ranges::range_value_t<T>, char>, "a string is keep_first");
    assert(into.size() == from.size());
    for (std::size_t i = 0; i < into.size(); ++i) pool(into[i], from[i]);
  } else {
    merge(into, from);
  }
}

template <typename T, auto M, Fold kFold, auto W>
void fold_field(Field<M, kFold, W>, T& into, const T& from) {
  auto& a = into.*M;
  const auto& b = from.*M;
  if constexpr (kFold == Fold::kPool) {
    pool(a, b);
  } else if constexpr (kFold == Fold::kMax) {
    a = std::max(a, b);
  } else if constexpr (kFold == Fold::kAppend) {
    for (std::size_t i = 0; i < a.size(); ++i) a[i].insert(a[i].end(), b[i].begin(), b[i].end());
  } else if constexpr (kFold == Fold::kGrow) {
    const std::size_t common = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < common; ++i) pool(a[i], b[i]);
    a.insert(a.end(), b.begin() + static_cast<std::ptrdiff_t>(common), b.end());
  } else if constexpr (kFold == Fold::kWeighted) {
    const auto total = into.*W + from.*W;
    if (total > 0) a = (a * (into.*W) + b * (from.*W)) / total;
  }
}

}  // namespace detail

template <Folded T>
void merge(T& into, const T& from) {
  [&]<auto... E>(Fields<E...>) {
    static_assert(std::is_aggregate_v<T> && detail::member_count<T>() == sizeof...(E),
                  "`fields` must list every member of the aggregate");
    (detail::fold_field(detail::as_field<E>(), into, from), ...);
  }(typename T::fields{});
}

template <Folded T, typename Fn>
void for_each_field(const T& r, Fn&& fn) {
  [&]<auto... E>(Fields<E...>) {
    (fn(detail::as_field<E>().name, r.*detail::as_field<E>().member), ...);
  }(typename T::fields{});
}

}  // namespace slp::stats
