// cell_arbiter.hpp — weighted proportional-fair sharing of one cell.
//
// The paper's capacity model is "the user sees cell capacity x (1 - load)"
// with load drawn from a synthetic AR(1) process (phy::LoadProcess). The
// arbiter makes that load *real*: terminals attach to their cell, declare
// per-direction demand, and a weighted max-min (water-filling) allocation
// splits the cell's nominal capacity among them. Every epoch trigger —
// demand change, attach, detach, serving-satellite handover, load override —
// opens an allocation epoch, and the allocation is cached between triggers
// so per-packet capacity queries stay O(1). The water-filling itself re-runs
// only when one of its inputs (members, weights, demands, override) moved:
// a handover re-grants beams but leaves every input, and so every allocated
// bit, as it was, so a handover-only epoch keeps the cached allocation.
//
// Fallback contract (the single-terminal seam): a cell with *no background
// members attached* delegates both directions to its ambient LoadProcess,
// which is constructed from the same config and the same label-forked RNG
// stream as leo::StarlinkAccess's own — so a fleet of size 1 yields
// bit-identical downlink_capacity()/uplink_capacity() to the legacy path
// (tests/fleet_test.cpp pins this, and the fig5 regression pins the
// campaign output downstream).
//
// Scenario composition: a load-surge override pins a utilization *floor*
// under the real contention (util = max(override, contention)), so scripted
// surges compose with simulated demand instead of silently replacing it.
#pragma once

#include <cstdint>
#include <vector>

#include "fleet/placement.hpp"
#include "phy/load_process.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace slp::fleet {

class CellArbiter {
 public:
  /// Direction indices follow leo::StarlinkAccess::set_load_override.
  static constexpr int kUp = 0;
  static constexpr int kDown = 1;

  struct Config {
    DataRate cell_downlink = DataRate::mbps(450);
    DataRate cell_uplink = DataRate::mbps(80);
    /// Ambient (non-fleet) load parameters: the fallback process when the
    /// cell has no attached background members, and the source of the
    /// floor/ceiling clamps bounding real contention (floor = unmodelled
    /// background activity, ceiling = scheduler overhead reserve).
    phy::LoadProcess::Config downlink_load;
    phy::LoadProcess::Config uplink_load;
  };

  /// `down_rng`/`up_rng` seed the ambient fallback processes; for the
  /// foreground cell they must be forked with the StarlinkAccess labels
  /// ("<rng_label>/load-down", "<rng_label>/load-up") to honour the
  /// bit-identity contract above.
  CellArbiter(Config config, Rng down_rng, Rng up_rng);

  // --- membership ----------------------------------------------------
  /// Attaches a terminal with a scheduling weight. Elastic members (the
  /// foreground terminal stack) have unbounded demand and soak up whatever
  /// the background leaves. Re-attaching an existing id updates it.
  void attach(TerminalId id, double weight, bool elastic);
  void detach(TerminalId id);
  [[nodiscard]] bool has_background() const { return background_members_ > 0; }
  [[nodiscard]] std::size_t members() const { return members_.size(); }

  /// Declares a background member's demand; returns true if it changed.
  /// Transitions between zero and positive demand count as active-set
  /// attach/detach in the stats.
  bool set_demand(TerminalId id, DataRate down, DataRate up);
  /// set_demand() for the member at `index` in ascending id order
  /// (< members()), with no lookup.
  bool set_demand_at(std::size_t index, DataRate down, DataRate up);
  /// Declared demand of a member; zero for unknown or elastic ids.
  [[nodiscard]] DataRate demand(TerminalId id, int direction) const;

  /// Serving-satellite change for this cell: beams are re-granted, so the
  /// allocation epoch advances (the allocation itself cannot change).
  void note_handover();

  // --- allocation ----------------------------------------------------
  /// Closes the epoch if any trigger fired since the last call (cheap no-op
  /// otherwise), recomputing both directions' allocations only if an input
  /// of the water-filling changed.
  void reallocate(TimePoint t);
  /// Water-filling runs so far: the allocations and utilizations can only
  /// have moved when this count did.
  [[nodiscard]] std::uint64_t recomputes() const { return recomputes_; }

  /// Fraction of nominal capacity available to the elastic foreground in
  /// `direction` — the drop-in replacement for LoadProcess::
  /// available_fraction. Delegates to the ambient process when the cell has
  /// no background members.
  [[nodiscard]] double available_fraction(int direction, TimePoint t);

  /// Background share of the nominal capacity, after floor/ceiling clamps
  /// and any override (1 - available_fraction in contention mode).
  [[nodiscard]] double utilization(int direction, TimePoint t);

  /// Last-computed allocation of a member (elastic members report the
  /// capacity the foreground sees). Zero for unknown ids.
  [[nodiscard]] DataRate allocation(TerminalId id, int direction) const;
  /// allocation() of the member at `index` in ascending id order
  /// (< members()).
  [[nodiscard]] DataRate allocation_at(std::size_t index, int direction) const {
    return DataRate::bps(members_[index].alloc_bps[direction]);
  }

  /// Sum of background allocations in `direction` (work-conservation
  /// checks: equals min(total demand, schedulable capacity)).
  [[nodiscard]] DataRate background_allocated(int direction) const;

  // --- scenario hooks -------------------------------------------------
  /// Pins a utilization floor (load surge). In fallback mode this is
  /// exactly LoadProcess::set_utilization_override; under real contention
  /// the effective utilization is max(override, contention), capped at the
  /// ceiling.
  void set_load_override(int direction, double utilization);
  void clear_load_override(int direction);

  struct Stats {
    std::uint64_t attaches = 0;        ///< structural + zero->positive demand
    std::uint64_t detaches = 0;        ///< structural + positive->zero demand
    std::uint64_t handovers = 0;
    /// Triggered allocation epochs closed by reallocate(); a handover-only
    /// epoch counts, though it keeps the cached allocation (recomputes()).
    std::uint64_t reallocations = 0;
    std::uint64_t epoch = 0;           ///< allocation generation counter
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// One active background member in the water-filling order.
  struct FillEntry {
    std::size_t member = 0;
    double weight = 1.0;
    double normalized = 0.0;  ///< demand / weight (sort key, never negative)
  };
  /// Stable ascending sort of `entries` by `normalized`: equal keys keep
  /// their input order. No key is negative, so the keys' IEEE-754 bits order
  /// as the numbers do. A stable LSD radix on the top three bytes of those
  /// bits groups the keys by prefix; a stable insertion pass on the whole
  /// key then orders each group, which is short on real demands. Should the
  /// pass move more than 4n entries, a full radix over every byte finishes
  /// the sort instead, so the worst case stays O(n). `tmp` is scratch.
  /// Returns false when that fallback ran.
  static bool sort_fill_order(std::vector<FillEntry>& entries, std::vector<FillEntry>& tmp);

 private:
  struct Member {
    TerminalId id = 0;
    double weight = 1.0;
    bool elastic = false;
    double demand_bps[2] = {0.0, 0.0};  ///< [kUp, kDown]
    double alloc_bps[2] = {0.0, 0.0};
  };

  [[nodiscard]] Member* find(TerminalId id);
  [[nodiscard]] const Member* find(TerminalId id) const;
  [[nodiscard]] phy::LoadProcess& ambient(int direction) {
    return direction == kUp ? ambient_up_ : ambient_down_;
  }
  [[nodiscard]] double nominal_bps(int direction) const {
    return (direction == kUp ? config_.cell_uplink : config_.cell_downlink)
        .bits_per_second();
  }
  /// Opens an allocation epoch.
  void mark_epoch();
  /// mark_epoch() for a change to an input of the water-filling.
  void mark_inputs_changed();
  void recompute_direction(int direction, TimePoint t);

  Config config_;
  phy::LoadProcess ambient_down_;
  phy::LoadProcess ambient_up_;
  std::vector<Member> members_;        ///< id-ordered (cells hold few members)
  std::size_t background_members_ = 0;
  bool dirty_ = true;         ///< an epoch trigger fired since reallocate()
  bool inputs_dirty_ = true;  ///< ... and it changed a water-filling input
  std::uint64_t recomputes_ = 0;
  double cached_util_[2] = {0.0, 0.0};
  Stats stats_;

  // Water-filling scratch, reused across epochs so reallocation does not
  // allocate in steady state.
  std::vector<FillEntry> fill_buf_;
  std::vector<FillEntry> fill_tmp_;  ///< radix sort's second buffer
};

}  // namespace slp::fleet
