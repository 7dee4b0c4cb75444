// loss.hpp — QUIC packet-loss analysis, the paper's §3.2 methodology.
//
// "As in QUIC retransmitted data have different packet numbers from the
// original data and as quiche does not introduce packet number gaps, every
// missing packet number means the packet has been lost."
//
// The analyzer ingests the receiver-side (pn, arrival time) stream of one
// connection and derives: loss ratio, loss-*burst* lengths (consecutive
// missing pns per event, Figure 4) and loss-event durations (arrival gap
// bracketing the missing range, §3.2's microsecond-scale distribution).
#pragma once

#include <cstdint>
#include <vector>

#include "quic/quic.hpp"
#include "stats/histogram.hpp"
#include "stats/quantiles.hpp"

namespace slp::measure {

class LossAnalyzer {
 public:
  /// Subscribes to the connection's receive hook. The connection must
  /// outlive the analyzer's collection phase.
  void attach(quic::QuicConnection& conn);

  /// Manual feed (testing, or traces from elsewhere).
  void note_received(std::uint64_t pn, TimePoint at);

  struct Report {
    std::uint64_t packets_received = 0;
    std::uint64_t packets_lost = 0;
    std::uint64_t loss_events = 0;
    double loss_ratio = 0.0;
    stats::IntHistogram burst_lengths;      ///< per event, Figure 4
    stats::Samples event_durations_ms;      ///< per event, §3.2
    std::uint64_t outage_events = 0;        ///< events lasting > 1 s
  };

  /// Analyzes everything collected so far (across all attached connections,
  /// each with its own packet-number space).
  [[nodiscard]] Report analyze() const;

 private:
  struct Arrival {
    std::uint64_t pn;
    TimePoint at;
  };
  std::vector<std::vector<Arrival>> traces_;  ///< one per attached connection

  static void analyze_trace(const std::vector<Arrival>& trace, Report& report);
};

/// Folds `from` into `into` (e.g. across campaign transfers or sweep cells):
/// counts and burst lengths add, event durations append, and the loss ratio
/// is recomputed from the summed counts.
void merge(LossAnalyzer::Report& into, const LossAnalyzer::Report& from);

}  // namespace slp::measure
