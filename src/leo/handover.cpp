#include "leo/handover.hpp"

#include <cassert>
#include <limits>
#include <string>

#include "obs/profile.hpp"

namespace slp::leo {

HandoverScheduler::HandoverScheduler(const Constellation& constellation, Config config, Rng rng)
    : constellation_{&constellation},
      config_{std::move(config)},
      rng_{rng},
      gateway_mask_{config_.gateway_min_elevation_deg} {
  assert(!config_.gateways.empty());
  gateway_ecef_.reserve(config_.gateways.size());
  for (const Gateway& gw : config_.gateways) gateway_ecef_.push_back(to_ecef(gw.location));
}

void HandoverScheduler::set_obs(obs::Recorder* rec) {
  if (rec == nullptr) {
    obs_slots_ = {};
    obs_handovers_ = {};
    obs_unconnected_ = {};
    trace_ = nullptr;
    return;
  }
  if (rec->options().metrics) {
    obs_slots_ = rec->registry().counter("leo.slots_computed");
    obs_handovers_ = rec->registry().counter("leo.handovers");
    obs_unconnected_ = rec->registry().counter("leo.unconnected_slots");
  }
  trace_ = rec->trace().enabled() ? &rec->trace() : nullptr;
}

void HandoverScheduler::set_satellite_health(SatIndex sat, bool healthy) {
  if (!sat.valid()) return;
  if (healthy) failed_sats_.erase({sat.plane, sat.slot});
  else failed_sats_.insert({sat.plane, sat.slot});
  invalidate();
}

void HandoverScheduler::set_plane_health(int plane, bool healthy) {
  if (healthy) failed_planes_.erase(plane);
  else failed_planes_.insert(plane);
  invalidate();
}

void HandoverScheduler::set_gateway_health(int gateway, bool healthy) {
  if (gateway < 0 || gateway >= static_cast<int>(config_.gateways.size())) return;
  if (healthy) failed_gateways_.erase(gateway);
  else failed_gateways_.insert(gateway);
  invalidate();
}

bool HandoverScheduler::satellite_healthy(SatIndex sat) const {
  return !failed_planes_.contains(sat.plane) && !failed_sats_.contains({sat.plane, sat.slot});
}

bool HandoverScheduler::gateway_healthy(int gateway) const {
  return !failed_gateways_.contains(gateway);
}

void HandoverScheduler::invalidate() { cached_slot_ = -1; }

const HandoverScheduler::Path& HandoverScheduler::path_at(TimePoint t) {
  const std::int64_t slot = t.ns() / config_.slot.ns();
  if (slot != cached_slot_) {
    cached_slot_ = slot;
    const TimePoint slot_start = TimePoint::from_ns(slot * config_.slot.ns());
    cached_path_ = compute_path(slot_start);
    stats_.slots_computed++;
    obs_slots_.add();
    bool handover = false;
    if (cached_path_.connected) {
      handover = last_sat_.valid() && !(cached_path_.sat == last_sat_);
      if (handover) {
        stats_.handovers++;
        obs_handovers_.add();
      }
      last_sat_ = cached_path_.sat;
    } else {
      stats_.unconnected_slots++;
      obs_unconnected_.add();
    }
    if (trace_ != nullptr) {
      // One complete span per reconfiguration slot: visible in Perfetto as a
      // contiguous ribbon with sat/gateway identity, gaps = unconnected.
      std::string args = "{\"connected\":";
      args += cached_path_.connected ? "true" : "false";
      if (cached_path_.connected) {
        args += ",\"sat\":\"" + std::to_string(cached_path_.sat.plane) + "/" +
                std::to_string(cached_path_.sat.slot) + "\",\"gw\":" +
                std::to_string(cached_path_.gateway) +
                ",\"handover\":" + (handover ? "true" : "false");
      }
      args += "}";
      trace_->span("leo", cached_path_.connected ? "slot" : "unconnected", slot_start,
                   slot_start + config_.slot, std::move(args));
      if (handover) trace_->instant("leo", "handover", slot_start);
    }
  }
  return cached_path_;
}

HandoverScheduler::Path HandoverScheduler::compute_path(TimePoint slot_start) {
  const obs::SectionTimer wall{obs::Section::kEphemeris};
  const int active_planes =
      config_.active_planes_fn ? config_.active_planes_fn(slot_start) : 0;
  constellation_->visible_from(config_.terminal, slot_start,
                               config_.terminal_min_elevation_deg, active_planes,
                               candidates_buf_);

  // Deterministic per-slot choice, independent of query order: derive the
  // randomness from the slot index, not from a shared advancing stream.
  Rng slot_rng = rng_.fork(std::to_string(slot_start.ns() / config_.slot.ns()));

  // Random serving satellite among candidates that can also reach a gateway
  // (bent-pipe requirement: same satellite must see UT and gateway).
  usable_buf_.clear();
  for (const auto& cand : candidates_buf_) {
    if (!satellite_healthy(cand.sat)) continue;
    if (filter_ && !filter_(cand, azimuth_deg(config_.terminal, cand.position))) continue;
    int best_gw = -1;
    double best_slant = std::numeric_limits<double>::max();
    for (std::size_t g = 0; g < config_.gateways.size(); ++g) {
      if (failed_gateways_.contains(static_cast<int>(g))) continue;
      const SkyLook look = sky_look(gateway_ecef_[g], cand.position);
      if (!gateway_mask_.admits(look)) continue;
      if (look.range_m < best_slant) {
        best_slant = look.range_m;
        best_gw = static_cast<int>(g);
      }
    }
    if (best_gw >= 0) usable_buf_.emplace_back(cand, best_gw);
  }

  Path path;
  if (usable_buf_.empty()) return path;  // not connected this slot

  const auto& [sat, gw] = usable_buf_[slot_rng.index(usable_buf_.size())];
  path.connected = true;
  path.sat = sat.sat;
  path.gateway = gw;
  path.terminal_slant_m = sat.slant_range_m;
  path.terminal_elevation_deg = sat.elevation_deg;
  path.gateway_slant_m = slant_range_m(gateway_ecef_[static_cast<std::size_t>(gw)], sat.position);
  return path;
}

}  // namespace slp::leo
