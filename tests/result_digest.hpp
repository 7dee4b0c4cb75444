// result_digest.hpp — order-sensitive digests of campaign results.
//
// A Digest hashes a run's results: sample bit patterns, counts and the
// rendered metrics and breakdown exports. A Result that lists its fields
// (stats/fold.hpp) is hashed field by field in list order, so field_digests()
// can name the field whose bits moved.
#pragma once

#include <bit>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <type_traits>
#include <vector>

#include "fleet/demand.hpp"
#include "measure/loss.hpp"
#include "obs/recorder.hpp"
#include "stats/fold.hpp"
#include "stats/groupby.hpp"
#include "stats/quantiles.hpp"
#include "stats/timeseries.hpp"

namespace slp {

struct Digest {
  std::uint64_t h = 0;
  void add(std::uint64_t x) { h = fleet::mix64(h, x); }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  void add(std::string_view text) {
    add(std::uint64_t{text.size()});
    for (const char c : text) add(std::uint64_t{static_cast<unsigned char>(c)});
  }
  void add(const stats::Samples& s) {
    add(std::uint64_t{s.size()});
    for (const double x : s.values()) add(x);
  }
  void add(const stats::StreamingSummary& s) {
    add(s.count());
    add(s.mean());
    add(s.sum());
    add(s.min());
    add(s.max());
    add(s.m2());
  }
  void add(const stats::TimeBinner& t) {
    add(t.bin_width().to_millis());
    add(std::uint64_t{t.bins()});
    for (std::size_t i = 0; i < t.bins(); ++i) add(t.bin(i));
  }
  void add(const stats::KeyedSamples& k) {
    add(k.edges());
    add(std::uint64_t{k.size()});
    for (const auto& [key, group] : k.groups()) {
      add(key);
      add(group.summary);
      add(group.counts);
    }
  }
  void add(const measure::LossAnalyzer::Report& r) {
    add(r.packets_received);
    add(r.packets_lost);
    add(r.loss_events);
    add(r.loss_ratio);
    for (const auto& [len, n] : r.burst_lengths.buckets()) {
      add(len);
      add(n);
    }
    add(r.event_durations_ms);
    add(r.outage_events);
  }
  void add(const obs::Snapshot& snap) {
    add(obs::metrics_json(snap));
    add(obs::breakdown_json(snap));
  }
  /// Integers (bool included) as 64-bit words, strings as text, listed
  /// fields in list order, vectors and arrays as their length and elements.
  template <typename T>
  void add(const T& v) {
    if constexpr (std::is_integral_v<T>) {
      add(static_cast<std::uint64_t>(v));
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      add(std::string_view{v});
    } else if constexpr (stats::Folded<T>) {
      stats::for_each_field(v, [this](std::string_view, const auto& field) { add(field); });
    } else {
      add(std::uint64_t{v.size()});
      for (const auto& x : v) add(x);
    }
  }
};

/// One field's digest, by name.
struct FieldDigest {
  std::string_view name;
  std::uint64_t digest = 0;
  bool operator==(const FieldDigest&) const = default;
};

inline std::ostream& operator<<(std::ostream& os, const FieldDigest& f) {
  return os << f.name << "=0x" << std::hex << f.digest << std::dec;
}

/// The digest of every field of `r`, in list order.
template <stats::Folded Result>
std::vector<FieldDigest> field_digests(const Result& r) {
  std::vector<FieldDigest> out;
  stats::for_each_field(r, [&out](std::string_view name, const auto& value) {
    Digest d;
    d.add(value);
    out.push_back({name, d.h});
  });
  return out;
}

}  // namespace slp
