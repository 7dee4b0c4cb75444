// scenario.hpp — deterministic environment & fault-injection timelines.
//
// The paper's captures contain episodes no stationary process reproduces: a
// rain front collapsing throughput over tens of minutes (WetLinks), a
// satellite or PoP dropping out of service ("A Multifaceted Look at Starlink
// Performance"), an operator maintenance window full of reconfigurations. A
// Scenario turns each such episode into a *scripted, reproducible* timeline:
// a list of timed events, parsed from a small declarative text format or
// built programmatically, that the Injector (injector.hpp) replays onto a
// live simulation through typed hooks.
//
// Determinism contract: a Scenario contains only absolute times and fixed
// parameters — no randomness, no dependence on the campaign seed. The same
// scenario therefore composes bit-identically with every --seeds cell and
// any --jobs width; the runner's cell-id-ordered merges are untouched.
//
// File format (one event per line, `#` comments, durations like 90s/15m/2h;
// `duration=` may replace `end=`):
//
//   scenario rain-front              # optional name line
//   rain           start=60s end=20m ramp=2m attenuation_db=8
//   sat_fail       start=5m  end=12m plane=3 slot=7
//   plane_fail     start=5m  end=12m plane=12
//   gateway_outage start=2m  end=4m  gateway=1
//   pop_outage     start=30s duration=15s
//   load_surge     start=1m  end=5m  utilization=0.92 direction=down
//   maintenance    start=10m end=12m period=15s blip=1.5s
//   move           start=0s  end=45m route=highway speed=1.0
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace slp::scenario {

enum class EventKind {
  kRain,           ///< rain-fade attenuation ramp (capacity + GE bursts)
  kSatelliteFail,  ///< one satellite leaves service
  kPlaneFail,      ///< a whole orbital plane leaves service
  kGatewayOutage,  ///< a ground station fails; the terminal re-homes
  kPopOutage,      ///< hard outage window: every packet destroyed
  kLoadSurge,      ///< shared-cell utilization pinned high
  kMaintenance,    ///< periodic reconfiguration storm (15 s grid)
  kMove,           ///< terminal drives a named route (src/mobility/)
};

[[nodiscard]] std::string_view to_string(EventKind kind);

/// One timed event. Only the fields relevant to `kind` are meaningful; the
/// parser rejects keys that do not belong to the event's kind.
struct Event {
  EventKind kind = EventKind::kPopOutage;
  TimePoint start;
  TimePoint end;

  double attenuation_db = 6.0;            ///< rain: peak fade
  Duration ramp = Duration::zero();       ///< rain: 0 -> peak ramp length
  int plane = -1;                         ///< sat_fail / plane_fail
  int slot = -1;                          ///< sat_fail
  int gateway = -1;                       ///< gateway_outage
  double utilization = 0.9;               ///< load_surge target
  int direction = 2;                      ///< load_surge: 0 up, 1 down, 2 both
  Duration period = Duration::seconds(15);        ///< maintenance grid
  Duration blip = Duration::millis(1500);         ///< maintenance gate closure
  std::string route = "highway";          ///< move: named mobility route
  double speed = 1.0;                     ///< move: speed scale (1 = nominal)
};

class ScenarioError final : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Scenario {
  std::string name = "unnamed";
  /// File/insertion order — which is also the hook application order for
  /// events scheduled at the same instant (the event queue is FIFO-stable).
  std::vector<Event> events;

  /// Parses the declarative text format above. Throws ScenarioError with a
  /// line number on malformed input; the result is already validated.
  [[nodiscard]] static Scenario parse(std::string_view text);
  /// parse() over the contents of `path`.
  [[nodiscard]] static Scenario load(const std::string& path);

  // Programmatic builders (chainable). Call validate() when done.
  Scenario& rain(TimePoint start, TimePoint end, double attenuation_db,
                 Duration ramp = Duration::zero());
  Scenario& plane_fail(TimePoint start, TimePoint end, int plane);
  Scenario& gateway_outage(TimePoint start, TimePoint end, int gateway);
  Scenario& pop_outage(TimePoint start, TimePoint end);
  Scenario& load_surge(TimePoint start, TimePoint end, double utilization,
                       int direction = 2);
  Scenario& maintenance(TimePoint start, TimePoint end,
                        Duration period = Duration::seconds(15),
                        Duration blip = Duration::millis(1500));
  Scenario& move(TimePoint start, TimePoint end, std::string route,
                 double speed = 1.0);

  /// Shifts every event by `offset` — positions a file-local timeline inside
  /// a longer campaign (`--scenario-offset`). Throws if any start goes
  /// negative.
  Scenario& shift(Duration offset);

  /// Enforces the composition rules. Every event needs 0 <= start < end and
  /// sane parameters. Two events of the *same kind on the same target* must
  /// not overlap (two rain fronts, two pop outages, two surges driving the
  /// same direction, the same satellite/plane/gateway failing twice, two
  /// maintenance windows): the restore-at-end hooks would fight over one
  /// knob. Events of different kinds (or different targets) overlap freely —
  /// they compose through independent hooks. Throws ScenarioError.
  void validate() const;

  [[nodiscard]] bool empty() const { return events.empty(); }
  [[nodiscard]] bool contains(EventKind kind) const;
};

}  // namespace slp::scenario
