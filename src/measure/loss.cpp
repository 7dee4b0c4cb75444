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

LossAnalyzer::Report LossAnalyzer::combine(const std::vector<Report>& reports) {
  Report out;
  for (const Report& r : reports) {
    out.packets_received += r.packets_received;
    out.packets_lost += r.packets_lost;
    out.loss_events += r.loss_events;
    out.outage_events += r.outage_events;
    for (const auto& [len, count] : r.burst_lengths.buckets()) {
      out.burst_lengths.add(len, count);
    }
    out.event_durations_ms.merge(r.event_durations_ms);
  }
  const std::uint64_t total = out.packets_received + out.packets_lost;
  out.loss_ratio = total == 0 ? 0.0 : static_cast<double>(out.packets_lost) / total;
  return out;
}

}  // namespace slp::measure
