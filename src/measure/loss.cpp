#include "measure/loss.hpp"

#include <algorithm>

namespace slp::measure {

void LossAnalyzer::attach(quic::QuicConnection& conn) {
  traces_.emplace_back();
  const std::size_t index = traces_.size() - 1;
  conn.hooks.on_packet_received = [this, index](std::uint64_t pn, TimePoint at) {
    traces_[index].push_back(Arrival{pn, at});
  };
}

void LossAnalyzer::note_received(std::uint64_t pn, TimePoint at) {
  if (traces_.empty()) traces_.emplace_back();
  traces_.back().push_back(Arrival{pn, at});
}

void LossAnalyzer::analyze_trace(const std::vector<Arrival>& trace, Report& report) {
  if (trace.empty()) return;
  std::vector<Arrival> sorted = trace;
  std::sort(sorted.begin(), sorted.end(),
            [](const Arrival& a, const Arrival& b) { return a.pn < b.pn; });
  // Drop duplicates (spurious retransmissions never reuse pns, but be safe).
  sorted.erase(std::unique(sorted.begin(), sorted.end(),
                           [](const Arrival& a, const Arrival& b) { return a.pn == b.pn; }),
               sorted.end());

  report.packets_received += sorted.size();
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    const std::uint64_t gap = sorted[i].pn - sorted[i - 1].pn - 1;
    if (gap == 0) continue;
    report.packets_lost += gap;
    report.loss_events += 1;
    report.burst_lengths.add(gap);
    const Duration duration = sorted[i].at - sorted[i - 1].at;
    report.event_durations_ms.add(duration.to_millis());
    if (duration > Duration::seconds(1)) report.outage_events += 1;
  }
}

LossAnalyzer::Report LossAnalyzer::analyze() const {
  Report report;
  for (const auto& trace : traces_) analyze_trace(trace, report);
  const std::uint64_t total = report.packets_received + report.packets_lost;
  report.loss_ratio = total == 0 ? 0.0 : static_cast<double>(report.packets_lost) / total;
  return report;
}

void merge(LossAnalyzer::Report& into, const LossAnalyzer::Report& from) {
  into.packets_received += from.packets_received;
  into.packets_lost += from.packets_lost;
  into.loss_events += from.loss_events;
  into.outage_events += from.outage_events;
  for (const auto& [len, count] : from.burst_lengths.buckets()) {
    into.burst_lengths.add(len, count);
  }
  into.event_durations_ms.merge(from.event_durations_ms);
  const std::uint64_t total = into.packets_received + into.packets_lost;
  into.loss_ratio = total == 0 ? 0.0 : static_cast<double>(into.packets_lost) / total;
}

}  // namespace slp::measure
