// interval_set.hpp — a set of unsigned integers kept as sorted, disjoint,
// half-open [start, end) ranges.
//
// The transports' one range type: TCP's out-of-order receive queue (and the
// SACK blocks read from it), QUIC's received packet numbers (ACK ranges),
// its stream-0 reassembly and its per-message reassembly. Ranges that
// overlap or touch merge on insert, so two stored ranges always have a gap
// between them. Storage is one contiguous vector: the sets stay small (a
// handful of holes), and a set that drains keeps its capacity, so steady
// insert/advance cycling does not allocate.
// Deliberately minimal — only the operations the transports use.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace slp::util {

class IntervalSet {
 public:
  struct Range {
    std::uint64_t start;
    std::uint64_t end;  ///< exclusive
  };
  using const_reverse_iterator = std::vector<Range>::const_reverse_iterator;

  /// Adds [start, end), merging every range it overlaps or touches. Returns
  /// the number of units that were not covered before (0 for a duplicate or
  /// an empty range).
  std::uint64_t insert(std::uint64_t start, std::uint64_t end) {
    if (start >= end) return 0;
    // The first range ending at or after `start` is the first that overlaps
    // or touches; every range from there that starts at or before `end` too.
    auto first = std::lower_bound(ranges_.begin(), ranges_.end(), start,
                                  [](const Range& r, std::uint64_t v) { return r.end < v; });
    auto last = first;
    std::uint64_t covered_before = 0;
    for (; last != ranges_.end() && last->start <= end; ++last) {
      covered_before += last->end - last->start;
      start = std::min(start, last->start);
      end = std::max(end, last->end);
    }
    if (first == last) {
      ranges_.insert(first, Range{start, end});
      return end - start;
    }
    *first = Range{start, end};
    ranges_.erase(first + 1, last);
    return (end - start) - covered_before;
  }

  /// Pops every range that starts at or before `cursor`, moving the cursor to
  /// the end of each one it reaches, and returns the new cursor: the
  /// in-order prefix grows over whatever arrived ahead of it.
  std::uint64_t advance(std::uint64_t cursor) {
    auto it = ranges_.begin();
    for (; it != ranges_.end() && it->start <= cursor; ++it) cursor = std::max(cursor, it->end);
    ranges_.erase(ranges_.begin(), it);
    return cursor;
  }

  /// Drops the lowest range.
  void pop_front() { ranges_.erase(ranges_.begin()); }

  [[nodiscard]] std::size_t size() const { return ranges_.size(); }
  [[nodiscard]] bool empty() const { return ranges_.empty(); }

  /// Highest range first.
  [[nodiscard]] const_reverse_iterator rbegin() const { return ranges_.rbegin(); }
  [[nodiscard]] const_reverse_iterator rend() const { return ranges_.rend(); }

 private:
  std::vector<Range> ranges_;
};

}  // namespace slp::util
