#include "obs/recorder.hpp"

#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "obs/json.hpp"

namespace slp::obs {

Recorder::Recorder(const Options& opts)
    : opts_{opts}, trace_{opts.trace || opts.provenance, opts.max_trace_events} {
  if (opts_.sample_interval > Duration::zero()) {
    sampler_ = std::make_unique<Sampler>(opts_.sample_interval, opts_.max_series_points);
  }
  if (opts_.provenance) {
    breakdown_ = std::make_unique<Breakdown>();
    anomaly_ = std::make_unique<AnomalyDetector>();
    anomaly_->set_callback([this](const AnomalyDetector::Anomaly& a) { capture_flight(a); });
    if (sampler_) {
      sampler_->set_observer([this](const std::string& name, std::int64_t t_ns, double v) {
        anomaly_->observe(name, t_ns, v);
      });
    }
  }
}

void Recorder::record_breakdown(std::int64_t t_ns, std::uint64_t flow,
                                const std::int64_t* comp_ns, std::int64_t latency_ns) {
  if (!breakdown_) return;
  breakdown_->record(flow, comp_ns, latency_ns);
  const std::int64_t measured_ns = latency_ns + comp_ns[kLossRecovery];
  anomaly_->observe("provenance.measured_ms", t_ns, static_cast<double>(measured_ns) * 1e-6);
}

void Recorder::record_component(std::uint64_t flow, int component, std::int64_t ns) {
  if (!breakdown_) return;
  breakdown_->add_component(flow, component, ns);
}

void Recorder::capture_flight(const AnomalyDetector::Anomaly& a) {
  // Bounded so a pathological scenario (e.g. a 140-day outage storm) cannot
  // grow the snapshot without limit; the anomaly *count* keeps climbing and
  // is exported as a counter either way.
  static constexpr std::size_t kMaxFlights = 64;
  static constexpr std::size_t kEventTail = 64;
  if (flights_.size() >= kMaxFlights) return;
  FlightDump dump;
  dump.stream = std::string{a.stream};
  dump.kind = a.kind;
  dump.t_ns = a.t_ns;
  dump.value = a.value;
  dump.median = a.median;
  auto counters = registry_.counters();
  for (const auto& [name, v] : counters) {
    const auto it = last_flight_counters_.find(name);
    const std::uint64_t prev = it == last_flight_counters_.end() ? 0 : it->second;
    if (v != prev) dump.counter_deltas.emplace_back(name, v - prev);
  }
  last_flight_counters_ = std::move(counters);
  dump.events = trace_.recent(kEventTail);
  flights_.push_back(std::move(dump));
}

Snapshot Recorder::take_snapshot() {
  Snapshot snap;
  snap.cells = 1;
  snap.counters = registry_.counters();
  snap.gauges = registry_.gauges();
  snap.histograms = registry_.histograms();
  if (sampler_) snap.series = sampler_->take();
  if (trace_.dropped() > 0) snap.counters["obs.trace.dropped_events"] += trace_.dropped();
  // A provenance run records trace events for flight dumps even when the
  // trace export was not requested; don't leak them into the trace export.
  snap.events = opts_.trace ? trace_.take() : std::vector<TraceEvent>{};
  if (breakdown_) {
    snap.breakdown_flows = breakdown_->take_flows();
    snap.breakdown_components = breakdown_->take_components();
  }
  if (anomaly_ && anomaly_->anomalies() > 0) {
    snap.counters["obs.anomaly.count"] += anomaly_->anomalies();
  }
  snap.flights = std::move(flights_);
  return snap;
}

void merge(Snapshot& into, const Snapshot& from) {
  for (const auto& [name, v] : from.counters) into.counters[name] += v;
  for (const auto& [name, v] : from.gauges) into.gauges[name] = v;
  for (const auto& [name, cell] : from.histograms) {
    auto [it, inserted] = into.histograms.emplace(name, cell);
    assert((inserted || it->second.edges == cell.edges) && "histogram edges must match to merge");
    if (!inserted) stats::merge(it->second, cell);
  }
  const auto offset = static_cast<std::uint32_t>(into.cells);
  for (const auto& s : from.series) {
    into.series.push_back(s);
    into.series.back().cell += offset;
  }
  for (const auto& ev : from.events) {
    into.events.push_back(ev);
    into.events.back().cell += offset;
  }
  into.breakdown_flows.merge(from.breakdown_flows);
  into.breakdown_components.merge(from.breakdown_components);
  for (const auto& f : from.flights) {
    into.flights.push_back(f);
    into.flights.back().cell += offset;
  }
  into.cells += from.cells;
}

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

}  // namespace

std::string metrics_json(const Snapshot& snap) {
  std::string out = "{\n  \"cells\": ";
  append_u64(out, snap.cells);

  out += ",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json_quote(name) + ": ";
    append_u64(out, v);
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json_quote(name) + ": " + json_number_exact(v);
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json_quote(name) + ": {\"edges\": [";
    for (std::size_t i = 0; i < h.edges.size(); ++i) {
      if (i != 0) out += ", ";
      out += json_number_exact(h.edges[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i != 0) out += ", ";
      append_u64(out, h.counts[i]);
    }
    out += "], \"total\": ";
    append_u64(out, h.total);
    out += ", \"sum\": " + json_number_exact(h.sum) + "}";
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"series\": [";
  first = true;
  for (const auto& s : snap.series) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": " + json_quote(s.name) + ", \"cell\": ";
    append_u64(out, s.cell);
    out += ", \"points\": [";
    for (std::size_t i = 0; i < s.points.size(); ++i) {
      if (i != 0) out += ", ";
      out += '[';
      append_i64(out, s.points[i].t_ns);
      out += ", " + json_number_exact(s.points[i].value) + ']';
    }
    out += "]}";
  }
  out += first ? "]" : "\n  ]";

  out += "\n}\n";
  return out;
}

namespace {

void append_group(std::string& out, const stats::KeyedSamples::Group& g) {
  out += "{\"count\": ";
  append_u64(out, g.summary.count());
  out += ", \"mean\": " + json_number_exact(g.summary.mean());
  out += ", \"min\": " + json_number_exact(g.summary.min());
  out += ", \"max\": " + json_number_exact(g.summary.max());
  out += ", \"sum\": " + json_number_exact(g.summary.sum());
  out += ", \"counts\": [";
  for (std::size_t i = 0; i < g.counts.size(); ++i) {
    if (i != 0) out += ", ";
    append_u64(out, g.counts[i]);
  }
  out += "]}";
}

}  // namespace

std::string breakdown_json(const Snapshot& snap) {
  std::string out = "{\n  \"cells\": ";
  append_u64(out, snap.cells);

  out += ",\n  \"edges_ms\": [";
  const auto& edges = snap.breakdown_components.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_number_exact(edges[i]);
  }
  out += ']';

  out += ",\n  \"components\": {";
  bool first = true;
  for (const auto& [key, group] : snap.breakdown_components.groups()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json_quote(component_name(static_cast<int>(key))) + ": ";
    append_group(out, group);
  }
  out += first ? "}" : "\n  }";

  // Flow keys ascend, so each flow's components are contiguous in the map.
  out += ",\n  \"flows\": {";
  first = true;
  std::uint64_t open_flow = 0;
  bool flow_open = false;
  for (const auto& [key, group] : snap.breakdown_flows.groups()) {
    const std::uint64_t flow = key / kComponentKeyStride;
    const int comp = static_cast<int>(key % kComponentKeyStride);
    if (!flow_open || flow != open_flow) {
      if (flow_open) out += "\n    }";
      out += first ? "\n" : ",\n";
      first = false;
      out += "    \"";
      append_u64(out, flow);
      out += "\": {\n";
      open_flow = flow;
      flow_open = true;
    } else {
      out += ",\n";
    }
    out += "      " + json_quote(component_name(comp)) + ": ";
    append_group(out, group);
  }
  if (flow_open) out += "\n    }";
  out += first ? "}" : "\n  }";

  out += "\n}\n";
  return out;
}

std::string flight_json(const Snapshot& snap) {
  std::string out = "{\n  \"cells\": ";
  append_u64(out, snap.cells);
  out += ",\n  \"flights\": [";
  bool first = true;
  for (const auto& f : snap.flights) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"stream\": " + json_quote(f.stream) + ", \"kind\": " + json_quote(f.kind) +
           ", \"t_ns\": ";
    append_i64(out, f.t_ns);
    out += ", \"value\": " + json_number_exact(f.value) +
           ", \"median\": " + json_number_exact(f.median) + ", \"cell\": ";
    append_u64(out, f.cell);
    out += ",\n     \"counter_deltas\": {";
    bool cd_first = true;
    for (const auto& [name, delta] : f.counter_deltas) {
      out += cd_first ? "" : ", ";
      cd_first = false;
      out += json_quote(name) + ": ";
      append_u64(out, delta);
    }
    out += "},\n     \"events\": [";
    bool ev_first = true;
    for (const auto& ev : f.events) {
      out += ev_first ? "\n      " : ",\n      ";
      ev_first = false;
      out += trace_event_json(ev);
    }
    out += ev_first ? "]}" : "\n     ]}";
  }
  out += first ? "]" : "\n  ]";
  out += "\n}\n";
  return out;
}

}  // namespace slp::obs
