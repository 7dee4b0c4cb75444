// fleet.hpp — N terminals sharing the constellation's ground cells.
//
// The paper measures ONE terminal and models everyone else as a synthetic
// load process. The fleet makes the neighbourhood real: N lightweight
// terminal stacks are placed around the vantage (fleet::Placement), each
// with a demand profile (fleet::DemandModel), grouped into ground cells
// whose capacity a weighted proportional-fair arbiter (fleet::CellArbiter)
// splits among them. The foreground terminal — the full packet-level stack
// behind leo::StarlinkAccess — joins its own cell as an *elastic* member,
// and the fleet installs itself as the access's CellShareModel, so the
// measured capacity is whatever the arbiter leaves after its simulated
// neighbours are served.
//
// Background terminals are deliberately *not* packet-level: their demand is
// a pure function of (terminal seed, time) and their effect on the
// foreground is entirely through the arbiter's allocation. That is what
// makes 10k terminals tractable, with no extra events per terminal. Each hot
// cell caches its members' seed, class and current session window, and
// demand is constant within a window (demand.hpp), so an epoch evaluates
// only the terminals whose window ended: the per-epoch cost is O(session
// changes) hash evaluations, plus a scan of the cell's cached windows only
// on epochs at or after the earliest window end (class windows are aligned
// to tens of seconds, so most 2 s epochs skip it). The water-filling and a
// scan of the members' allocations run only on epochs where an input of the
// cell's arbiter changed: a handover alone opens an allocation epoch but
// keeps the allocation (cell_arbiter.hpp).
//
// Per-epoch sample streams are runs. A background terminal's down_mbps and
// a supercell's analytic utilization are piecewise constant, so each is
// kept as an open run (value, first epoch) and closed only when the value
// changes, the terminal goes idle, the aggregate or its cell is retired, or
// someone reads the distribution: cell_util() and terminal_down_mbps()
// flush every open run before they return, so a reader never sees a stale
// sample. A closed run is staged into one stats::RunBatch
// (KeyedSamples::Slot::stage) and the batch folds once: every run an epoch
// closes, in every cell and supercell, at the end of tick(), and every run
// a reader or a retirement flushes before that call returns. The runs touch
// distinct groups, so the batch steps several in lockstep and each group
// ends bit-identical to one add per epoch. Runs compare values bitwise, and
// only serial code stages them (sharded workers record the closed runs; no
// worker creates a group). Hot cells' own utilization is still added every
// epoch.
//
// Continental scale adds two more levers on top (both off by default):
//
//   * `aggregate_idle`: only cells hosting a measured vantage (the
//     foreground, add_vantage() terminals, or cells a mobile foreground has
//     promoted) run their arbiter ("hot" cells). Every other populated cell
//     folds into its HierarchicalGrid supercell as a pair of counters
//     (terminals, cells), whose utilization is computed analytically in
//     O(1) per epoch from DemandModel::expected_at — a million terminals
//     cost memory and time proportional to the hot set. Promotion and
//     demotion happen deterministically when the foreground crosses a cell
//     boundary, moving the cell's count between the aggregate and a live
//     arbiter (lazy Placement ranges make the membership free).
//
//   * `shards`: hot-cell epochs step contiguous cell-id ranges through
//     runner::run_indexed on a private runner::Pool. Per-cell state
//     (arbiter, scheduler, ambient RNG streams) is disjoint by
//     construction, workers write per-cell slots, and the fold into the
//     keyed distributions happens on the sim thread in cell-id order
//     afterwards — so any shard count produces byte-identical output to
//     the serial loop (shards == 1 *is* the serial loop).
//
// Determinism: placement draws from one forked label stream; demand is
// counter-based (no state, no draw order); per-cell ambient processes and
// handover schedulers fork label streams keyed by the cell id. A fleet of
// size 1 attaches no background members anywhere, so every capacity query
// falls back to the ambient LoadProcess pair forked with StarlinkAccess's
// own labels — bit-identical to running without a fleet at all.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "fleet/cell_arbiter.hpp"
#include "fleet/demand.hpp"
#include "fleet/placement.hpp"
#include "leo/access.hpp"
#include "obs/registry.hpp"
#include "runner/pool.hpp"
#include "sim/simulator.hpp"
#include "stats/groupby.hpp"
#include "stats/quantiles.hpp"

namespace slp::fleet {

class Fleet final : public leo::CellShareModel {
 public:
  /// Reserved id for the foreground (packet-level) terminal. Vantage ids
  /// descend from kForegroundId - 1, background ids ascend from 0.
  static constexpr TerminalId kForegroundId = 0xFFFFFFFFu;

  struct Config {
    /// Total terminals *including* the foreground stack; 0 disables the
    /// fleet entirely, 1 attaches only the foreground (pure fallback mode).
    int size = 0;
    Placement::Config placement;  ///< .terminals is derived (= size - 1)
    DemandModel::Config demand;
    /// Demand/allocation re-evaluation cadence; matches LoadProcess's 2 s
    /// step so contention moves at the same timescale as the synthetic load.
    Duration epoch = Duration::seconds(2);
    double terminal_weight = 1.0;    ///< background scheduling weight
    double foreground_weight = 1.0;  ///< elastic foreground weight
    /// Track per-cell serving-satellite changes (each one advances the
    /// cell's allocation epoch).
    bool handovers = true;
    /// Analytic idle-cell aggregation (see file comment). Off = every
    /// populated cell is hot, the pre-hierarchical behaviour.
    bool aggregate_idle = false;
    /// Base cells per supercell edge for the hierarchical grid.
    int supercell_factor = 8;
    /// Arbiter epoch shards: 1 = serial reference loop, 0 = hardware
    /// concurrency, N = that many pool workers. Output is byte-identical
    /// for every value.
    int shards = 1;
    std::string rng_label = "fleet";

    [[nodiscard]] bool enabled() const { return size > 0; }
  };

  /// Builds the fleet and installs it on `access` (uninstalled again in the
  /// destructor). `access` and `sim` must outlive the fleet.
  Fleet(sim::Simulator& sim, leo::StarlinkAccess& access, Config config);
  ~Fleet() override;

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // --- CellShareModel (the access-facing seam) ------------------------
  double available_fraction(int direction, TimePoint t) override;
  void set_load_override(int direction, double utilization) override;
  void clear_load_override(int direction) override;

  // --- introspection --------------------------------------------------
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const Placement& placement() const { return placement_; }
  [[nodiscard]] const DemandModel& demand_model() const { return demand_; }
  [[nodiscard]] CellId foreground_cell() const { return foreground_cell_id_; }
  /// Hot (arbiter-backed) cells.
  [[nodiscard]] std::size_t cell_count() const { return cells_.size(); }
  [[nodiscard]] std::size_t terminal_count() const { return placement_.total_terminals(); }
  /// Stable per-terminal demand seed (hash stream base + id).
  [[nodiscard]] std::uint64_t terminal_seed(TerminalId id) const {
    return mix64(demand_seed_, id);
  }
  /// Null for cells that are not hot.
  [[nodiscard]] CellArbiter* arbiter(CellId cell);

  /// One analytically aggregated supercell: `terminals` background
  /// terminals across `cells` populated base cells, contributing a single
  /// O(1) utilization term per epoch.
  struct Aggregate {
    CellId super = 0;
    std::uint32_t terminals = 0;
    std::uint32_t cells = 0;
    /// This supercell's cell_util(direction) groups, resolved once.
    stats::KeyedSamples::Slot util_down;
    stats::KeyedSamples::Slot util_up;
    /// The open run: every epoch from `run_since` on sampled (run_down,
    /// run_up), and none of them is in util_down/util_up yet.
    double run_down = 0.0;
    double run_up = 0.0;
    std::uint64_t run_since = 0;
  };
  /// Supercell-id ordered; empty unless config().aggregate_idle.
  [[nodiscard]] const std::vector<Aggregate>& aggregates() const { return aggregates_; }
  [[nodiscard]] std::uint64_t aggregated_terminal_count() const;
  /// The analytic utilization term for one aggregate at time t (clamped to
  /// the ambient floor/ceiling; composes with load-surge overrides exactly
  /// like a hot arbiter: util = max(analytic, override)).
  [[nodiscard]] double analytic_util(int direction, const Aggregate& a, TimePoint t) const {
    return analytic_util(direction, a, demand_.expected_at(t));
  }

  // --- measured vantages (measure::MultiVantageCampaign) ---------------
  /// Attaches a measured vantage terminal — an elastic member, like the
  /// foreground — in the cell containing `where`, promoting that cell out
  /// of its aggregate if needed and pinning it hot for the fleet's
  /// lifetime. Returns the vantage's reserved terminal id.
  TerminalId add_vantage(const leo::GeoPoint& where, double weight = 1.0);
  [[nodiscard]] std::size_t vantage_count() const { return vantages_.size(); }
  [[nodiscard]] CellId vantage_cell(TerminalId vantage) const;
  /// Capacity fraction the vantage's cell leaves to *this* vantage (the
  /// elastic pool share, split by weight among co-resident elastic
  /// members). The multi-vantage campaign's per-anchor capacity seam.
  [[nodiscard]] double vantage_available_fraction(TerminalId vantage, int direction,
                                                  TimePoint t);

  // --- mobility (src/mobility/) ---------------------------------------
  /// Re-homes the foreground terminal to the cell containing `p`: detaches
  /// it from its old arbiter, attaches it (elastic) to the new cell's —
  /// promoting/creating that cell on first visit — and, under
  /// aggregate_idle, folds the departed cell back into its supercell
  /// unless a vantage pins it. Returns true when a cell boundary was
  /// actually crossed. Draws no randomness beyond label-forked streams, so
  /// a moving foreground never perturbs the background fleet's draws.
  bool set_foreground_position(const leo::GeoPoint& p, TimePoint now);

  /// Aggregated arbiter counters across all hot cells, including cells
  /// retired by demotion (monotonic across promote/demote cycles).
  [[nodiscard]] CellArbiter::Stats totals() const;
  /// Fleet-wide epoch ticks executed so far.
  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }

  // --- per-epoch accumulated distributions ----------------------------
  /// Keys are base-cell ids for hot cells and
  /// (super | HierarchicalGrid::kAggregateKeyBit) for aggregates. Flushes
  /// the supercells' open runs first.
  [[nodiscard]] const stats::KeyedSamples& cell_util(int direction);
  /// Keyed by terminal id, one sample per epoch the terminal was active.
  /// Flushes the hot terminals' open runs first.
  [[nodiscard]] const stats::KeyedSamples& terminal_down_mbps();
  [[nodiscard]] const stats::Samples& foreground_down_mbps() const {
    return foreground_down_mbps_;
  }
  [[nodiscard]] const stats::Samples& foreground_up_mbps() const {
    return foreground_up_mbps_;
  }

 private:
  /// A background member's cached demand state. Its demand was last
  /// evaluated for the session window ending at `until`, and stays what the
  /// arbiter holds until then.
  struct Terminal {
    std::uint64_t seed = 0;
    /// Earliest time the demand may change; the minimum forces the first
    /// epoch after the cell goes hot to evaluate every member.
    TimePoint until = TimePoint::from_ns(std::numeric_limits<std::int64_t>::min());
    stats::KeyedSamples::Slot down_mbps;  ///< terminal_down_mbps() group
    /// Open run while active: every epoch from `run_since` on sampled
    /// `run_mbps`, none of them folded into down_mbps yet.
    double run_mbps = 0.0;
    std::uint64_t run_since = 0;
    DemandClass cls = DemandClass::kIdle;
    bool active = false;
  };

  struct Cell {
    CellId id = 0;
    std::unique_ptr<CellArbiter> arbiter;
    /// Background members: the contiguous id range [first_terminal,
    /// first_terminal + terminals.size()) from the lazy placement; empty
    /// for pure-foreground/vantage cells. Elastic ids descend from
    /// kForegroundId, above every background id, so terminals[k] is arbiter
    /// member index k.
    TerminalId first_terminal = 0;
    std::vector<Terminal> terminals;
    stats::KeyedSamples::Slot util_down;
    stats::KeyedSamples::Slot util_up;
    bool pinned = false;  ///< hosts a vantage; never demoted
    /// Serving-satellite tracker. The foreground cell reads the access's own
    /// scheduler (null here); other cells get one at their cell centre,
    /// sharing the fleet's constellation.
    std::unique_ptr<leo::HandoverScheduler> scheduler;
    leo::SatIndex last_sat{};
    bool had_sat = false;
    /// Earliest `until` among the terminals: no demand can change before
    /// it, so epochs before it skip the scan. The minimum forces the first
    /// epoch after the cell goes hot to scan.
    TimePoint next_change = TimePoint::from_ns(std::numeric_limits<std::int64_t>::min());
    /// arbiter->recomputes() when the terminals' runs were last compared
    /// with their allocations.
    std::uint64_t staged_recomputes = 0;
  };

  /// A closed terminal run: `epochs` samples of `mbps` for terminals[terminal].
  struct RunFold {
    std::uint32_t terminal = 0;
    double mbps = 0.0;
    std::uint64_t epochs = 0;
  };

  /// Per-cell epoch output, staged so sharded and serial ticks fold the
  /// same values in the same (cell-id) order.
  struct CellTick {
    double util_down = 0.0;
    double util_up = 0.0;
    std::vector<RunFold> runs;  ///< terminal runs closed this epoch
  };

  void tick();
  /// Runs one cell's epoch (handover check, demand refresh, water-filling)
  /// and stages its samples into `out`. Touches only this cell's state (and
  /// the access's scheduler for the foreground cell), so disjoint cells may
  /// step concurrently.
  void step_cell(Cell& c, TimePoint now, CellTick& out) const;
  /// Adds one cell's epoch utilization and stages its closed runs into
  /// runs_ (sim thread only).
  void fold_cell(Cell& c, const CellTick& t);
  /// Stages the open runs' epochs so far into runs_ (sim thread only); the
  /// caller folds the batch.
  void flush_runs(Cell& c);
  void flush_run(Aggregate& a);
  /// Re-evaluates the supercells' analytic terms when one of their inputs
  /// moved, closing every run whose value changed.
  void refresh_aggregates(TimePoint now);
  /// analytic_util() with the class-mix expectation at t already evaluated.
  [[nodiscard]] double analytic_util(int direction, const Aggregate& a,
                                     const DemandModel::Demand& expected) const;
  void publish_stats(const CellArbiter::Stats& totals);
  void update_shape_gauges();
  [[nodiscard]] Cell* find_cell(CellId id);
  /// Makes `id` hot: returns the existing cell or builds one, pulling its
  /// placement range out of the supercell aggregate when aggregation is on.
  Cell* promote_cell(CellId id);
  /// Folds an unpinned, non-foreground hot cell back into its aggregate
  /// (no-op unless aggregate_idle). Its arbiter counters move into the
  /// retired accumulator so totals() stays monotonic, and its terminals'
  /// open runs are flushed.
  void demote_cell(CellId id);
  void make_cell(CellId id, const Placement::CellRange* range);
  /// Adds `cells` base cells holding `terminals` to supercell `super`'s
  /// aggregate, creating it if needed.
  void fold_into_aggregate(CellId super, std::uint32_t terminals, std::uint32_t cells);
  void take_from_aggregate(CellId base, std::uint32_t count);
  /// Builds the cell-centre sky watcher for a cell that needs one.
  void ensure_scheduler(Cell& c);

  sim::Simulator* sim_;
  leo::StarlinkAccess* access_;
  Config config_;
  Placement placement_;
  HierarchicalGrid hier_;
  DemandModel demand_;
  std::uint64_t demand_seed_ = 0;
  CellArbiter::Config arb_config_;
  /// Shared orbital state for the per-cell handover schedulers (the access
  /// owns its own instance; same shell config → same geometry).
  std::unique_ptr<leo::Constellation> constellation_;
  std::vector<Cell> cells_;  ///< hot cells, cell-id ordered
  std::vector<Aggregate> aggregates_;
  struct Vantage {
    TerminalId id = 0;
    CellId cell = 0;
    double weight = 1.0;
  };
  std::vector<Vantage> vantages_;
  TerminalId next_vantage_id_ = kForegroundId - 1;
  CellId foreground_cell_id_ = 0;
  Cell* foreground_cell_ = nullptr;
  sim::Timer epoch_timer_;
  /// Lazily created on the first sharded tick; null while shards == 1.
  std::unique_ptr<runner::Pool> pool_;
  std::vector<CellTick> tick_scratch_;
  /// Closed runs awaiting their fold: every stage is folded before the
  /// staging call (tick, a reader, a retirement) returns.
  stats::RunBatch runs_;

  stats::KeyedSamples cell_util_down_;
  stats::KeyedSamples cell_util_up_;
  stats::KeyedSamples terminal_down_mbps_;
  stats::Samples foreground_down_mbps_;
  stats::Samples foreground_up_mbps_;

  /// Active scenario load-surge floors (index = direction; < 0 = none), so
  /// cells created by a mid-run migration inherit an in-force override.
  double load_override_[2] = {-1.0, -1.0};
  /// The class-mix expectation the supercell runs were last evaluated at,
  /// and whether an override or an aggregate's counts moved since.
  DemandModel::Demand aggregates_expected_{};
  bool aggregates_stale_ = true;

  CellArbiter::Stats published_{};
  CellArbiter::Stats retired_{};  ///< counters of demoted cells
  std::uint64_t epochs_ = 0;
  obs::Counter obs_epochs_;
  obs::Counter obs_attaches_;
  obs::Counter obs_detaches_;
  obs::Counter obs_handovers_;
  obs::Counter obs_reallocations_;
  obs::Counter obs_promotions_;
  obs::Counter obs_demotions_;
  obs::Gauge obs_util_down_;
  obs::Gauge obs_util_up_;
  obs::Gauge obs_epoch_handovers_;
  obs::Gauge obs_epoch_reallocations_;
  obs::Gauge obs_hot_cells_;
  obs::Gauge obs_supercells_;
  obs::Gauge obs_aggregated_terminals_;
  /// Start of the current epoch interval (previous tick), for trace spans.
  TimePoint last_tick_at_;
  bool ticked_ = false;
};

}  // namespace slp::fleet
