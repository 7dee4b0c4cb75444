// fast_forward_metrics.hpp — compares metrics exports across --fast-forward.
//
// Fast-forward on and off must produce byte-identical exports, except for
// the lines that exist precisely to differ between the two modes: the
// event-queue counter and the fast-path introspection metrics
// (materialization counter, per-direction active gauges).
#pragma once

#include <sstream>
#include <string>

namespace slp {

/// `json` (a metrics_json document) without those lines.
inline std::string strip_event_count(const std::string& json) {
  std::istringstream in{json};
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.find("sim.events_processed") != std::string::npos) continue;
    if (line.find("sim.ff.") != std::string::npos) continue;
    if (line.find("fast_path_active") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace slp
