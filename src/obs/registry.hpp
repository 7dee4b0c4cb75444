// registry.hpp — per-Simulator named metrics: counters, gauges, histograms.
//
// Hot-path contract: instrumented components resolve a *bound handle* once
// (at construction) and increment through it afterwards — one null check and
// one add, no string hashing, no map lookup per event. When observability is
// off the handle is unbound and every operation is a no-op, so the simulator
// pays only the null check.
//
// Names are hierarchical by convention ("link.sat.dropped_medium"); two
// lookups of the same name return handles to the same cell, so unnamed
// links/components naturally aggregate into shared counters.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "stats/fold.hpp"

namespace slp::obs {

class Registry;

/// Bound counter handle. Default-constructed = unbound = no-op.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    if (v_ != nullptr) *v_ += delta;
  }
  [[nodiscard]] bool bound() const { return v_ != nullptr; }

 private:
  friend class Registry;
  std::uint64_t* v_ = nullptr;
};

/// Bound gauge handle (a last-written double).
class Gauge {
 public:
  void set(double x) {
    if (v_ != nullptr) *v_ = x;
  }
  [[nodiscard]] bool bound() const { return v_ != nullptr; }

 private:
  friend class Registry;
  double* v_ = nullptr;
};

/// One fixed-bucket histogram: counts_[i] counts samples in
/// [edges_[i-1], edges_[i]); the first bucket is (-inf, edges_[0]) and the
/// last (counts_.back()) is [edges_.back(), +inf).
struct HistogramCell {
  std::vector<double> edges;
  std::vector<std::uint64_t> counts;  ///< size = edges.size() + 1
  std::uint64_t total = 0;
  double sum = 0.0;

  void observe(double x);

  using fields = stats::Fields<stats::keep_first<&HistogramCell::edges>, &HistogramCell::counts,
                               &HistogramCell::total, &HistogramCell::sum>;
};

/// Bound histogram handle.
class HistogramHandle {
 public:
  void observe(double x) {
    if (cell_ != nullptr) cell_->observe(x);
  }
  [[nodiscard]] bool bound() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  HistogramCell* cell_ = nullptr;
};

class Registry {
 public:
  /// Get-or-create; repeated lookups bind to the same cell.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);
  /// `edges` must be strictly increasing. If the name already exists its
  /// original edges win (same code path registers the same edges anyway).
  [[nodiscard]] HistogramHandle histogram(std::string_view name, std::span<const double> edges);

  /// Exponential bucket edges: `count` edges from `lo`, multiplying by
  /// `factor` — the standard latency/queue-depth bucketing.
  [[nodiscard]] static std::vector<double> exp_edges(double lo, double factor, int count);

  // Deterministic read-out (name-sorted; used by Recorder::snapshot).
  [[nodiscard]] std::map<std::string, std::uint64_t> counters() const;
  [[nodiscard]] std::map<std::string, double> gauges() const;
  [[nodiscard]] std::map<std::string, HistogramCell> histograms() const;

 private:
  // Deques give pointer stability to bound handles as cells are added.
  std::map<std::string, std::size_t, std::less<>> counter_index_;
  std::deque<std::uint64_t> counter_cells_;
  std::map<std::string, std::size_t, std::less<>> gauge_index_;
  std::deque<double> gauge_cells_;
  std::map<std::string, std::size_t, std::less<>> histogram_index_;
  std::deque<HistogramCell> histogram_cells_;
};

}  // namespace slp::obs
