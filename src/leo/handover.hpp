// handover.hpp — serving-satellite selection on the 15-second grid.
//
// Starlink user terminals are re-scheduled onto a (possibly different)
// satellite every 15 seconds. The scheduler below reproduces the observable
// consequences: the UT<->satellite<->gateway geometry (and hence the
// propagation component of RTT) is piecewise-constant over 15 s slots and
// jumps at slot boundaries. Satellite choice is *randomized among visible
// candidates* rather than always-best — the operator balances cells, the
// user does not get the optimal beam — which produces the few-ms slot-to-slot
// RTT dispersion seen in the paper's Figure 1 boxplots.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <utility>

#include "leo/constellation.hpp"
#include "obs/recorder.hpp"
#include "util/rng.hpp"

namespace slp::leo {

class HandoverScheduler {
 public:
  struct Config {
    GeoPoint terminal;
    Duration slot = Duration::seconds(15);
    double terminal_min_elevation_deg = 25.0;
    double gateway_min_elevation_deg = 20.0;
    std::vector<Gateway> gateways;
    /// Number of orbital planes in service at time t (densification epochs).
    /// Null = all planes.
    std::function<int(TimePoint)> active_planes_fn;
  };

  HandoverScheduler(const Constellation& constellation, Config config, Rng rng);

  struct Path {
    bool connected = false;
    SatIndex sat;
    int gateway = -1;               ///< index into config().gateways
    double terminal_slant_m = 0.0;  ///< UT -> satellite
    double gateway_slant_m = 0.0;   ///< satellite -> gateway
    double terminal_elevation_deg = 0.0;

    /// One-way bent-pipe propagation delay (UT -> sat -> gateway).
    [[nodiscard]] Duration propagation_one_way() const {
      return rf_propagation_delay(terminal_slant_m + gateway_slant_m);
    }
  };

  /// The serving path during the slot containing t. Cached per slot.
  [[nodiscard]] const Path& path_at(TimePoint t);

  // --- scenario fault hooks (src/scenario/) --------------------------
  // Failed satellites/planes/gateways are excluded from candidate sets; a
  // health change also invalidates the cached slot, so the terminal reroutes
  // at the *next* path query instead of waiting out the 15 s slot — the
  // observable behaviour of an in-service failure. Selection stays
  // deterministic: the per-slot RNG is forked from the slot index, so a
  // recomputed slot draws reproducibly from the filtered candidate set.
  void set_satellite_health(SatIndex sat, bool healthy);
  void set_plane_health(int plane, bool healthy);
  /// `gateway` indexes config().gateways; out-of-range indices are ignored.
  void set_gateway_health(int gateway, bool healthy);
  [[nodiscard]] bool satellite_healthy(SatIndex sat) const;
  [[nodiscard]] bool gateway_healthy(int gateway) const;
  /// Forces the next path_at() to recompute (maintenance reconfiguration).
  void invalidate();

  // --- mobility hooks (src/mobility/) --------------------------------
  // Re-homes the terminal to a new vantage point. Deliberately does NOT
  // invalidate the cached slot: the new position takes effect at the next
  // slot computation, and in-motion re-routes within a slot are driven
  // explicitly by the mobility epoch check (mobile_terminal.hpp), which
  // knows whether the *serving* satellite actually dropped out of view.
  void set_terminal(const GeoPoint& p) { config_.terminal = p; }

  /// Extra per-candidate gate composed on top of terminal_min_elevation_deg
  /// (heading-relative obstruction sectors). Receives the candidate and its
  /// azimuth from the terminal; returning false excludes it from the slot's
  /// usable set. Null disables. Azimuths are only computed while a filter is
  /// installed, so the static path pays nothing.
  using CandidateFilter = std::function<bool(const Constellation::VisibleSat&, double az_deg)>;
  void set_candidate_filter(CandidateFilter filter) { filter_ = std::move(filter); }

  [[nodiscard]] const Config& config() const { return config_; }

  struct Stats {
    std::uint64_t slots_computed = 0;
    std::uint64_t handovers = 0;     ///< serving satellite changed
    std::uint64_t unconnected_slots = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Wires metrics counters and per-slot trace spans (category "leo").
  /// Safe to call with nullptr (disables again).
  void set_obs(obs::Recorder* rec);

 private:
  [[nodiscard]] Path compute_path(TimePoint slot_start);

  const Constellation* constellation_;
  Config config_;
  Rng rng_;
  std::vector<Vec3> gateway_ecef_;  ///< precomputed config_.gateways locations
  ElevationMask gateway_mask_;      ///< config_.gateway_min_elevation_deg
  // Scratch buffers reused across slots so the 15 s tick stops allocating.
  std::vector<Constellation::VisibleSat> candidates_buf_;
  std::vector<std::pair<Constellation::VisibleSat, int>> usable_buf_;  ///< sat, gateway idx
  CandidateFilter filter_;
  std::set<std::pair<int, int>> failed_sats_;  ///< (plane, slot)
  std::set<int> failed_planes_;
  std::set<int> failed_gateways_;
  std::int64_t cached_slot_ = -1;
  Path cached_path_;
  SatIndex last_sat_;
  Stats stats_;
  obs::Counter obs_slots_;
  obs::Counter obs_handovers_;
  obs::Counter obs_unconnected_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace slp::leo
