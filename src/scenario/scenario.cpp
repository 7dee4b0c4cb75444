#include "scenario/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

namespace slp::scenario {

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kRain: return "rain";
    case EventKind::kSatelliteFail: return "sat_fail";
    case EventKind::kPlaneFail: return "plane_fail";
    case EventKind::kGatewayOutage: return "gateway_outage";
    case EventKind::kPopOutage: return "pop_outage";
    case EventKind::kLoadSurge: return "load_surge";
    case EventKind::kMaintenance: return "maintenance";
    case EventKind::kMove: return "move";
  }
  return "?";
}

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw ScenarioError{"scenario line " + std::to_string(line) + ": " + what};
}

bool parse_kind(std::string_view word, EventKind& out) {
  for (const EventKind kind :
       {EventKind::kRain, EventKind::kSatelliteFail, EventKind::kPlaneFail,
        EventKind::kGatewayOutage, EventKind::kPopOutage, EventKind::kLoadSurge,
        EventKind::kMaintenance, EventKind::kMove}) {
    if (word == to_string(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

Duration need_duration(int line, std::string_view key, std::string_view value) {
  Duration d;
  if (!parse_duration(value, d)) {
    fail(line, std::string{key} + "=" + std::string{value} + " is not a duration");
  }
  return d;
}

double need_double(int line, std::string_view key, std::string_view value) {
  double v = 0.0;
  if (!parse_number(value, v)) {
    fail(line, std::string{key} + "=" + std::string{value} + " is not a number");
  }
  return v;
}

int need_int(int line, std::string_view key, std::string_view value) {
  const double v = need_double(line, key, value);
  const int i = static_cast<int>(v);
  if (static_cast<double>(i) != v) {
    fail(line, std::string{key} + "=" + std::string{value} + " is not an integer");
  }
  return i;
}

/// Does `kind` accept key? start/end/duration are universal.
bool key_allowed(EventKind kind, std::string_view key) {
  if (key == "start" || key == "end" || key == "duration") return true;
  switch (kind) {
    case EventKind::kRain: return key == "attenuation_db" || key == "ramp";
    case EventKind::kSatelliteFail: return key == "plane" || key == "slot";
    case EventKind::kPlaneFail: return key == "plane";
    case EventKind::kGatewayOutage: return key == "gateway";
    case EventKind::kPopOutage: return false;
    case EventKind::kLoadSurge: return key == "utilization" || key == "direction";
    case EventKind::kMaintenance: return key == "period" || key == "blip";
    case EventKind::kMove: return key == "route" || key == "speed";
  }
  return false;
}

/// The per-target conflict key: same-kind events only clash when these agree.
/// load_surge direction=both clashes with either single direction, encoded by
/// expanding "both" into both single-direction keys at check time.
bool same_target(const Event& a, const Event& b) {
  switch (a.kind) {
    case EventKind::kSatelliteFail: return a.plane == b.plane && a.slot == b.slot;
    case EventKind::kPlaneFail: return a.plane == b.plane;
    case EventKind::kGatewayOutage: return a.gateway == b.gateway;
    case EventKind::kLoadSurge:
      return a.direction == 2 || b.direction == 2 || a.direction == b.direction;
    case EventKind::kRain:
    case EventKind::kPopOutage:
    case EventKind::kMaintenance:
    case EventKind::kMove:
      return true;  // one global knob (or vehicle) each
  }
  return true;
}

}  // namespace

Scenario Scenario::parse(std::string_view text) {
  Scenario scenario;
  bool saw_name = false;
  int line_no = 0;
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    std::string_view line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view{} : rest.substr(nl + 1);
    ++line_no;

    if (const std::size_t hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    // Tokenize on blanks.
    std::vector<std::string_view> tokens;
    std::size_t pos = 0;
    while (pos < line.size()) {
      while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t' || line[pos] == '\r')) {
        ++pos;
      }
      std::size_t start = pos;
      while (pos < line.size() && line[pos] != ' ' && line[pos] != '\t' && line[pos] != '\r') {
        ++pos;
      }
      if (pos > start) tokens.push_back(line.substr(start, pos - start));
    }
    if (tokens.empty()) continue;

    if (tokens[0] == "scenario") {
      if (saw_name) fail(line_no, "duplicate scenario name line");
      if (tokens.size() != 2) fail(line_no, "want: scenario <name>");
      scenario.name = std::string{tokens[1]};
      saw_name = true;
      continue;
    }

    Event ev;
    if (!parse_kind(tokens[0], ev.kind)) {
      fail(line_no, "unknown event kind '" + std::string{tokens[0]} + "'");
    }
    bool saw_start = false;
    bool saw_end = false;
    Duration duration = Duration::zero();
    bool saw_duration = false;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const std::size_t eq = tokens[i].find('=');
      if (eq == std::string_view::npos) {
        fail(line_no, "expected key=value, got '" + std::string{tokens[i]} + "'");
      }
      const std::string_view key = tokens[i].substr(0, eq);
      const std::string_view value = tokens[i].substr(eq + 1);
      if (!key_allowed(ev.kind, key)) {
        fail(line_no, "unknown key '" + std::string{key} + "' for " +
                          std::string{to_string(ev.kind)});
      }
      if (key == "start") {
        ev.start = TimePoint::epoch() + need_duration(line_no, key, value);
        saw_start = true;
      } else if (key == "end") {
        ev.end = TimePoint::epoch() + need_duration(line_no, key, value);
        saw_end = true;
      } else if (key == "duration") {
        duration = need_duration(line_no, key, value);
        saw_duration = true;
      } else if (key == "attenuation_db") {
        ev.attenuation_db = need_double(line_no, key, value);
      } else if (key == "ramp") {
        ev.ramp = need_duration(line_no, key, value);
      } else if (key == "plane") {
        ev.plane = need_int(line_no, key, value);
      } else if (key == "slot") {
        ev.slot = need_int(line_no, key, value);
      } else if (key == "gateway") {
        ev.gateway = need_int(line_no, key, value);
      } else if (key == "utilization") {
        ev.utilization = need_double(line_no, key, value);
      } else if (key == "direction") {
        if (value == "up") ev.direction = 0;
        else if (value == "down") ev.direction = 1;
        else if (value == "both") ev.direction = 2;
        else fail(line_no, "direction wants up|down|both");
      } else if (key == "period") {
        ev.period = need_duration(line_no, key, value);
      } else if (key == "blip") {
        ev.blip = need_duration(line_no, key, value);
      } else if (key == "route") {
        ev.route = std::string{value};
      } else if (key == "speed") {
        ev.speed = need_double(line_no, key, value);
      }
    }
    if (!saw_start) fail(line_no, "missing start=");
    if (saw_end && saw_duration) fail(line_no, "give end= or duration=, not both");
    if (saw_duration) ev.end = ev.start + duration;
    else if (!saw_end) fail(line_no, "missing end= (or duration=)");
    scenario.events.push_back(ev);
  }
  scenario.validate();
  return scenario;
}

Scenario Scenario::load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw ScenarioError{"cannot open scenario file " + path};
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  Scenario scenario = parse(text);
  if (scenario.name == "unnamed") {
    // Default the name to the file's basename, sans extension.
    std::string base = path;
    if (const std::size_t slash = base.find_last_of('/'); slash != std::string::npos) {
      base = base.substr(slash + 1);
    }
    if (const std::size_t dot = base.find_last_of('.'); dot != std::string::npos) {
      base = base.substr(0, dot);
    }
    if (!base.empty()) scenario.name = base;
  }
  return scenario;
}

Scenario& Scenario::rain(TimePoint start, TimePoint end, double attenuation_db, Duration ramp) {
  Event ev;
  ev.kind = EventKind::kRain;
  ev.start = start;
  ev.end = end;
  ev.attenuation_db = attenuation_db;
  ev.ramp = ramp;
  events.push_back(ev);
  return *this;
}

Scenario& Scenario::plane_fail(TimePoint start, TimePoint end, int plane) {
  Event ev;
  ev.kind = EventKind::kPlaneFail;
  ev.start = start;
  ev.end = end;
  ev.plane = plane;
  events.push_back(ev);
  return *this;
}

Scenario& Scenario::gateway_outage(TimePoint start, TimePoint end, int gateway) {
  Event ev;
  ev.kind = EventKind::kGatewayOutage;
  ev.start = start;
  ev.end = end;
  ev.gateway = gateway;
  events.push_back(ev);
  return *this;
}

Scenario& Scenario::pop_outage(TimePoint start, TimePoint end) {
  Event ev;
  ev.kind = EventKind::kPopOutage;
  ev.start = start;
  ev.end = end;
  events.push_back(ev);
  return *this;
}

Scenario& Scenario::load_surge(TimePoint start, TimePoint end, double utilization,
                               int direction) {
  Event ev;
  ev.kind = EventKind::kLoadSurge;
  ev.start = start;
  ev.end = end;
  ev.utilization = utilization;
  ev.direction = direction;
  events.push_back(ev);
  return *this;
}

Scenario& Scenario::maintenance(TimePoint start, TimePoint end, Duration period,
                                Duration blip) {
  Event ev;
  ev.kind = EventKind::kMaintenance;
  ev.start = start;
  ev.end = end;
  ev.period = period;
  ev.blip = blip;
  events.push_back(ev);
  return *this;
}

Scenario& Scenario::move(TimePoint start, TimePoint end, std::string route, double speed) {
  Event ev;
  ev.kind = EventKind::kMove;
  ev.start = start;
  ev.end = end;
  ev.route = std::move(route);
  ev.speed = speed;
  events.push_back(ev);
  return *this;
}

bool Scenario::contains(EventKind kind) const {
  for (const Event& ev : events) {
    if (ev.kind == kind) return true;
  }
  return false;
}

Scenario& Scenario::shift(Duration offset) {
  for (Event& ev : events) {
    ev.start = ev.start + offset;
    ev.end = ev.end + offset;
    if (ev.start < TimePoint::epoch()) {
      throw ScenarioError{"shift moves event '" + std::string{to_string(ev.kind)} +
                          "' before t=0"};
    }
  }
  return *this;
}

void Scenario::validate() const {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& ev = events[i];
    const std::string where =
        "event " + std::to_string(i + 1) + " (" + std::string{to_string(ev.kind)} + ")";
    if (ev.start < TimePoint::epoch()) throw ScenarioError{where + ": start before t=0"};
    if (ev.end <= ev.start) throw ScenarioError{where + ": end must be after start"};
    switch (ev.kind) {
      case EventKind::kRain:
        if (ev.attenuation_db <= 0.0) throw ScenarioError{where + ": attenuation_db must be > 0"};
        if (ev.ramp.is_negative()) throw ScenarioError{where + ": ramp must be >= 0"};
        break;
      case EventKind::kSatelliteFail:
        if (ev.plane < 0 || ev.slot < 0) throw ScenarioError{where + ": needs plane= and slot="};
        break;
      case EventKind::kPlaneFail:
        if (ev.plane < 0) throw ScenarioError{where + ": needs plane="};
        break;
      case EventKind::kGatewayOutage:
        if (ev.gateway < 0) throw ScenarioError{where + ": needs gateway="};
        break;
      case EventKind::kPopOutage:
        break;
      case EventKind::kLoadSurge:
        if (ev.utilization < 0.0 || ev.utilization > 1.0) {
          throw ScenarioError{where + ": utilization must be in [0, 1]"};
        }
        if (ev.direction < 0 || ev.direction > 2) {
          throw ScenarioError{where + ": direction must be up|down|both"};
        }
        break;
      case EventKind::kMaintenance:
        if (ev.period <= Duration::zero()) throw ScenarioError{where + ": period must be > 0"};
        if (ev.blip <= Duration::zero() || ev.blip >= ev.period) {
          throw ScenarioError{where + ": blip must be in (0, period)"};
        }
        break;
      case EventKind::kMove:
        if (ev.route.empty()) throw ScenarioError{where + ": needs route="};
        if (ev.speed < 0.0) throw ScenarioError{where + ": speed must be >= 0"};
        break;
    }
  }
  // Same-kind same-target events must not overlap: each such pair drives one
  // knob whose end-of-window restore would otherwise undo the other's start.
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      const Event& a = events[i];
      const Event& b = events[j];
      if (a.kind != b.kind || !same_target(a, b)) continue;
      const bool overlap = a.start < b.end && b.start < a.end;
      if (overlap) {
        throw ScenarioError{"events " + std::to_string(i + 1) + " and " +
                            std::to_string(j + 1) + " (" + std::string{to_string(a.kind)} +
                            ") overlap on the same target"};
      }
    }
  }
}

}  // namespace slp::scenario
