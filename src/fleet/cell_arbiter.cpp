#include "fleet/cell_arbiter.hpp"

#include <algorithm>
#include <cmath>

namespace slp::fleet {

CellArbiter::CellArbiter(Config config, Rng down_rng, Rng up_rng)
    : config_{config},
      ambient_down_{config.downlink_load, down_rng},
      ambient_up_{config.uplink_load, up_rng} {}

CellArbiter::Member* CellArbiter::find(TerminalId id) {
  const auto it = std::lower_bound(
      members_.begin(), members_.end(), id,
      [](const Member& m, TerminalId key) { return m.id < key; });
  return (it != members_.end() && it->id == id) ? &*it : nullptr;
}

const CellArbiter::Member* CellArbiter::find(TerminalId id) const {
  return const_cast<CellArbiter*>(this)->find(id);
}

void CellArbiter::mark_epoch() {
  dirty_ = true;
  ++stats_.epoch;
}

void CellArbiter::attach(TerminalId id, double weight, bool elastic) {
  if (Member* existing = find(id)) {
    existing->weight = std::max(1e-9, weight);
    existing->elastic = elastic;
    mark_epoch();
    return;
  }
  Member m;
  m.id = id;
  m.weight = std::max(1e-9, weight);
  m.elastic = elastic;
  const auto it = std::lower_bound(
      members_.begin(), members_.end(), id,
      [](const Member& member, TerminalId key) { return member.id < key; });
  members_.insert(it, m);
  if (!elastic) ++background_members_;
  ++stats_.attaches;
  mark_epoch();
}

void CellArbiter::detach(TerminalId id) {
  const auto it = std::lower_bound(
      members_.begin(), members_.end(), id,
      [](const Member& m, TerminalId key) { return m.id < key; });
  if (it == members_.end() || it->id != id) return;
  if (!it->elastic) --background_members_;
  members_.erase(it);
  ++stats_.detaches;
  mark_epoch();
}

bool CellArbiter::set_demand(TerminalId id, DataRate down, DataRate up) {
  const Member* m = find(id);
  return m != nullptr &&
         set_demand_at(static_cast<std::size_t>(m - members_.data()), down, up);
}

DataRate CellArbiter::demand(TerminalId id, int direction) const {
  const Member* m = find(id);
  return m == nullptr ? DataRate::zero() : DataRate::bps(m->demand_bps[direction]);
}

bool CellArbiter::set_demand_at(std::size_t index, DataRate down, DataRate up) {
  Member* m = &members_[index];
  if (m->elastic) return false;
  const double down_bps = std::max(0.0, down.bits_per_second());
  const double up_bps = std::max(0.0, up.bits_per_second());
  if (m->demand_bps[kDown] == down_bps && m->demand_bps[kUp] == up_bps) return false;
  const bool was_active = m->demand_bps[kDown] > 0.0 || m->demand_bps[kUp] > 0.0;
  m->demand_bps[kDown] = down_bps;
  m->demand_bps[kUp] = up_bps;
  const bool is_active = down_bps > 0.0 || up_bps > 0.0;
  if (is_active && !was_active) ++stats_.attaches;
  if (!is_active && was_active) ++stats_.detaches;
  mark_epoch();
  return true;
}

void CellArbiter::note_handover() {
  ++stats_.handovers;
  mark_epoch();
}

void CellArbiter::recompute_direction(int direction, TimePoint t) {
  const double nominal = nominal_bps(direction);
  const phy::LoadProcess::Config& load =
      direction == kUp ? config_.uplink_load : config_.downlink_load;
  // The schedulable budget: the ceiling mirrors LoadProcess's cap — the
  // reserve above it is framing/control overhead no user is ever granted.
  double budget = nominal * load.ceiling;

  // Weighted max-min water-filling over active background members plus the
  // elastic pool: sort by demand-per-weight, satisfy the cheapest demands,
  // split the rest by weight. Elastic demand is infinite, so elastic weight
  // stays in the denominator to the end (the background never squeezes the
  // foreground below its proportional share).
  fill_buf_.clear();
  double elastic_weight = 0.0;
  double total_weight = 0.0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    Member& m = members_[i];
    m.alloc_bps[direction] = 0.0;
    if (m.elastic) {
      elastic_weight += m.weight;
      total_weight += m.weight;
      continue;
    }
    if (m.demand_bps[direction] <= 0.0) continue;
    fill_buf_.push_back({i, m.weight, m.demand_bps[direction] / m.weight});
    total_weight += m.weight;
  }
  std::sort(fill_buf_.begin(), fill_buf_.end(), [this](const Entry& a, const Entry& b) {
    // Deterministic total order: ties on the sort key break by terminal id.
    if (a.normalized != b.normalized) return a.normalized < b.normalized;
    return members_[a.member].id < members_[b.member].id;
  });

  double remaining = budget;
  double weight_left = total_weight;
  std::size_t cursor = 0;
  for (; cursor < fill_buf_.size(); ++cursor) {
    const Entry& e = fill_buf_[cursor];
    Member& m = members_[e.member];
    const double fair = weight_left > 0.0 ? remaining / weight_left : 0.0;
    if (e.normalized <= fair) {
      m.alloc_bps[direction] = m.demand_bps[direction];
      remaining -= m.demand_bps[direction];
      weight_left -= e.weight;
    } else {
      break;  // this member and every later one is share-limited
    }
  }
  for (std::size_t i = cursor; i < fill_buf_.size(); ++i) {
    const Entry& e = fill_buf_[i];
    members_[e.member].alloc_bps[direction] =
        weight_left > 0.0 ? e.weight * remaining / weight_left : 0.0;
  }
  double background_total = 0.0;
  for (const Entry& e : fill_buf_) background_total += members_[e.member].alloc_bps[direction];

  double util = std::clamp(background_total / nominal, load.floor, load.ceiling);
  // Load-surge override: a scripted surge is *extra* load on top of the
  // simulated terminals, so it pins a floor rather than replacing them.
  phy::LoadProcess& amb = ambient(direction);
  if (amb.overridden()) {
    util = std::clamp(std::max(util, amb.utilization(t)), load.floor, load.ceiling);
  }
  cached_util_[direction] = util;

  // Elastic members see the whole non-background remainder (the legacy
  // "capacity x (1 - load)" contract), split by weight if there are several.
  const double elastic_total = nominal * (1.0 - util);
  for (Member& m : members_) {
    if (m.elastic) {
      m.alloc_bps[direction] =
          elastic_weight > 0.0 ? elastic_total * m.weight / elastic_weight : 0.0;
    }
  }
}

void CellArbiter::reallocate(TimePoint t) {
  if (!dirty_) return;
  recompute_direction(kUp, t);
  recompute_direction(kDown, t);
  dirty_ = false;
  ++stats_.reallocations;
}

double CellArbiter::available_fraction(int direction, TimePoint t) {
  if (background_members_ == 0) return ambient(direction).available_fraction(t);
  reallocate(t);
  return 1.0 - cached_util_[direction];
}

double CellArbiter::utilization(int direction, TimePoint t) {
  if (background_members_ == 0) return ambient(direction).utilization(t);
  reallocate(t);
  return cached_util_[direction];
}

DataRate CellArbiter::allocation(TerminalId id, int direction) const {
  const Member* m = find(id);
  return m == nullptr ? DataRate::zero() : DataRate::bps(m->alloc_bps[direction]);
}

DataRate CellArbiter::background_allocated(int direction) const {
  double total = 0.0;
  for (const Member& m : members_) {
    if (!m.elastic) total += m.alloc_bps[direction];
  }
  return DataRate::bps(total);
}

void CellArbiter::set_load_override(int direction, double utilization) {
  ambient(direction).set_utilization_override(utilization);
  mark_epoch();
}

void CellArbiter::clear_load_override(int direction) {
  ambient(direction).clear_override();
  mark_epoch();
}

}  // namespace slp::fleet
