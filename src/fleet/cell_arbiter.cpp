#include "fleet/cell_arbiter.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <utility>

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

void CellArbiter::mark_inputs_changed() {
  inputs_dirty_ = true;
  mark_epoch();
}

void CellArbiter::attach(TerminalId id, double weight, bool elastic) {
  if (Member* existing = find(id)) {
    existing->weight = std::max(1e-9, weight);
    existing->elastic = elastic;
    mark_inputs_changed();
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
  mark_inputs_changed();
}

void CellArbiter::detach(TerminalId id) {
  const auto it = std::lower_bound(
      members_.begin(), members_.end(), id,
      [](const Member& m, TerminalId key) { return m.id < key; });
  if (it == members_.end() || it->id != id) return;
  if (!it->elastic) --background_members_;
  members_.erase(it);
  ++stats_.detaches;
  mark_inputs_changed();
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
  mark_inputs_changed();
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
  // Deterministic total order: ascending key, ties by terminal id.
  sort_fill_order(fill_buf_, fill_tmp_);

  double remaining = budget;
  double weight_left = total_weight;
  std::size_t cursor = 0;
  for (; cursor < fill_buf_.size(); ++cursor) {
    const FillEntry& e = fill_buf_[cursor];
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
    const FillEntry& e = fill_buf_[i];
    members_[e.member].alloc_bps[direction] =
        weight_left > 0.0 ? e.weight * remaining / weight_left : 0.0;
  }
  double background_total = 0.0;
  for (const FillEntry& e : fill_buf_) background_total += members_[e.member].alloc_bps[direction];

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

namespace {

/// Entries the insertion pass may move, per entry, before the full radix
/// takes over. On the continental fleet's demands the pass moves under
/// 0.01 entries per entry.
constexpr std::size_t kInsertionBudget = 4;

std::uint64_t key_bits(const CellArbiter::FillEntry& e) {
  return std::bit_cast<std::uint64_t>(e.normalized);
}

/// Stable counting passes over key bytes [First, Last), least significant
/// first. A pass whose byte is the same in every key would only copy, so it
/// is skipped.
template <std::size_t First, std::size_t Last>
void radix_passes(std::vector<CellArbiter::FillEntry>& buf,
                  std::vector<CellArbiter::FillEntry>& tmp) {
  const std::size_t n = buf.size();
  // Every histogram fills in one read of the keys: their increments are
  // independent, so they overlap where per-pass loops would stall on
  // repeated buckets.
  std::array<std::array<std::uint32_t, 256>, Last - First> counts{};
  for (const CellArbiter::FillEntry& e : buf) {
    const std::uint64_t key = key_bits(e);
    for (std::size_t b = First; b < Last; ++b) ++counts[b - First][(key >> (8 * b)) & 0xFF];
  }
  tmp.resize(n);
  for (std::size_t b = First; b < Last; ++b) {
    std::array<std::uint32_t, 256>& offset = counts[b - First];
    const int shift = static_cast<int>(8 * b);
    if (offset[(key_bits(buf[0]) >> shift) & 0xFF] == n) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& c : offset) sum += std::exchange(c, sum);
    for (const CellArbiter::FillEntry& e : buf) tmp[offset[(key_bits(e) >> shift) & 0xFF]++] = e;
    buf.swap(tmp);
  }
}

}  // namespace

bool CellArbiter::sort_fill_order(std::vector<FillEntry>& entries, std::vector<FillEntry>& tmp) {
  const std::size_t n = entries.size();
  if (n < 2) return true;
  // Bits 40-63: sign, exponent and the top 12 mantissa bits.
  radix_passes<5, 8>(entries, tmp);
  // Each insertion only moves an entry past strictly greater keys, so the
  // pass is stable, and equal keys still hold their input order here.
  const std::size_t budget = kInsertionBudget * n;
  std::size_t moved = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const FillEntry e = entries[i];
    const std::uint64_t key = key_bits(e);
    std::size_t j = i;
    for (; j > 0 && key_bits(entries[j - 1]) > key; --j) entries[j] = entries[j - 1];
    entries[j] = e;
    moved += i - j;
    if (moved > budget) {
      // Equal keys are still in input order, so a stable sort of the
      // current order is the stable sort of the input.
      radix_passes<0, 8>(entries, tmp);
      return false;
    }
  }
  return true;
}

void CellArbiter::reallocate(TimePoint t) {
  if (!dirty_) return;
  // The water-filling reads only members, weights, demands and the override
  // (whose utilization is the pinned value itself, whatever t), so an epoch
  // that changed none of them would recompute the same bits.
  if (inputs_dirty_) {
    recompute_direction(kUp, t);
    recompute_direction(kDown, t);
    inputs_dirty_ = false;
    ++recomputes_;
  }
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
  mark_inputs_changed();
}

void CellArbiter::clear_load_override(int direction) {
  ambient(direction).clear_override();
  mark_inputs_changed();
}

}  // namespace slp::fleet
