// profile.hpp — wall-clock self-profiling of the event loop.
//
// Deliberately separate from the Registry/Snapshot: wall-clock numbers are
// nondeterministic, and the Snapshot export is compared byte-for-byte across
// --jobs values in CI. WallProfile lives on the Simulator, is off by default
// (the timing calls would cost ~2x on the micro benchmark), and is reported
// out-of-band (stderr / Pool task table), never merged into metrics JSON.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace slp::obs {

/// Subsystem attribution for wall-clock time inside the event loop. Sections
/// are coarse on purpose: each one is a well-known hot region (ephemeris
/// queries, the fleet arbiter, link delivery, congestion control) whose share
/// of the loop answers "where does the wall time go" without a real profiler.
enum class Section : int {
  kEphemeris = 0,  ///< handover slot selection and visibility counts (src/leo)
  kArbiter,        ///< fleet::CellArbiter + Fleet epoch re-evaluation
  kLink,           ///< sim::Link delivery + transmission machinery
  kCc,             ///< TCP/QUIC ack processing and congestion control
  kCount,
};

[[nodiscard]] const char* section_name(Section s);

/// Log2-bucketed nanosecond histogram of event-callback latency plus an
/// event counter. Bucket i counts callbacks with latency in [2^i, 2^(i+1)) ns.
class WallProfile {
 public:
  static constexpr int kBuckets = 32;

  void record_callback_ns(std::uint64_t ns) {
    events_++;
    total_ns_ += ns;
    buckets_[bucket_of(ns)]++;
  }

  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] std::uint64_t total_ns() const { return total_ns_; }
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets() const { return buckets_; }

  /// Approximate latency quantile (upper edge of the bucket holding rank q).
  [[nodiscard]] std::uint64_t quantile_ns(double q) const;

  void record_section(Section s, std::uint64_t ns) {
    auto& sec = sections_[static_cast<int>(s)];
    sec.calls++;
    sec.total_ns += ns;
  }

  struct SectionStats {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
  };
  [[nodiscard]] const SectionStats& section(Section s) const {
    return sections_[static_cast<int>(s)];
  }

  /// The profile SectionTimers attribute to, thread-local so parallel sweep
  /// cells never share one. The Simulator installs its own profile for the
  /// duration of run()/run_until(); nullptr (the default) makes every
  /// SectionTimer a no-op.
  [[nodiscard]] static WallProfile* current();
  /// Installs `p` and returns the previous value (restore on scope exit).
  static WallProfile* exchange_current(WallProfile* p);

  /// Multi-line human-readable report ("events=N mean=...ns p50=... p99=...",
  /// then one "section ..." line per subsystem with its share of the loop).
  [[nodiscard]] std::string report() const;

 private:
  [[nodiscard]] static int bucket_of(std::uint64_t ns) {
    int b = 0;
    while (ns > 1 && b < kBuckets - 1) {
      ns >>= 1;
      b++;
    }
    return b;
  }

  std::uint64_t events_ = 0;
  std::uint64_t total_ns_ = 0;
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::array<SectionStats, static_cast<int>(Section::kCount)> sections_{};
};

/// RAII wall-clock attribution to one Section of the thread's current
/// profile. Checks WallProfile::current() once; when no profile is installed
/// (the default) construction is a TLS load and a branch — cheap enough to
/// leave in per-delivery code unconditionally.
class SectionTimer {
 public:
  explicit SectionTimer(Section s) : profile_{WallProfile::current()}, section_{s} {
    if (profile_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~SectionTimer() {
    if (profile_ != nullptr) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      profile_->record_section(section_, static_cast<std::uint64_t>(ns));
    }
  }
  SectionTimer(const SectionTimer&) = delete;
  SectionTimer& operator=(const SectionTimer&) = delete;

 private:
  WallProfile* profile_;
  Section section_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace slp::obs
