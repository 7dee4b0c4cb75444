#include "fleet/fleet.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "runner/sweep.hpp"

namespace slp::fleet {

namespace {

Placement make_placement(const Fleet::Config& cfg, const sim::Simulator& sim) {
  Placement::Config p = cfg.placement;
  p.terminals = std::max(0, cfg.size - 1);
  return Placement::generate(p, sim.fork_rng(cfg.rng_label + "/placement"));
}

std::vector<double> util_edges() {
  std::vector<double> edges;
  edges.reserve(20);
  for (int i = 1; i <= 20; ++i) edges.push_back(static_cast<double>(i) * 0.05);
  return edges;
}

/// Run values compare by bits, so 0.0 and -0.0 never share a run.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::vector<double> mbps_edges() {
  std::vector<double> edges;
  edges.reserve(13);
  for (double x = 0.125; x <= 512.0; x *= 2.0) edges.push_back(x);
  return edges;
}

}  // namespace

Fleet::Fleet(sim::Simulator& sim, leo::StarlinkAccess& access, Config config)
    : sim_{&sim},
      access_{&access},
      config_{std::move(config)},
      placement_{make_placement(config_, sim)},
      hier_{config_.placement.cell_km, config_.supercell_factor},
      demand_{config_.demand},
      demand_seed_{sim.fork_rng(config_.rng_label + "/demand").next()},
      epoch_timer_{sim},
      cell_util_down_{util_edges()},
      cell_util_up_{util_edges()},
      terminal_down_mbps_{mbps_edges()} {
  const leo::StarlinkAccess::Config& ac = access.config();
  foreground_cell_id_ = placement_.grid().cell_of(ac.terminal);

  arb_config_.cell_downlink = ac.cell_downlink;
  arb_config_.cell_uplink = ac.cell_uplink;
  arb_config_.downlink_load = ac.downlink_load;
  arb_config_.uplink_load = ac.uplink_load;

  // Hot set: without aggregation every populated cell runs its arbiter (the
  // flat-grid behaviour); with it, only the foreground cell starts hot and
  // everything else folds into its supercell's analytic term. Id-adjacent
  // cells mostly share a supercell, so each run of them folds at once.
  CellId run_super = 0;
  std::uint32_t run_terminals = 0;
  std::uint32_t run_cells = 0;
  for (const Placement::CellRange& r : placement_.cells()) {
    if (!config_.aggregate_idle || r.cell == foreground_cell_id_) {
      make_cell(r.cell, &r);
      continue;
    }
    const CellId super = hier_.super_of(r.cell);
    if (run_cells > 0 && super != run_super) {
      fold_into_aggregate(run_super, run_terminals, run_cells);
      run_terminals = 0;
      run_cells = 0;
    }
    run_super = super;
    run_terminals += r.count;
    ++run_cells;
  }
  if (run_cells > 0) fold_into_aggregate(run_super, run_terminals, run_cells);
  if (find_cell(foreground_cell_id_) == nullptr) make_cell(foreground_cell_id_, nullptr);
  foreground_cell_ = find_cell(foreground_cell_id_);

  access.set_cell_share_model(this);

  if (auto* rec = sim.obs()) {
    obs::Registry& reg = rec->registry();
    obs_epochs_ = reg.counter("fleet.epochs");
    obs_attaches_ = reg.counter("fleet.attaches");
    obs_detaches_ = reg.counter("fleet.detaches");
    obs_handovers_ = reg.counter("fleet.handovers");
    obs_reallocations_ = reg.counter("fleet.reallocations");
    obs_promotions_ = reg.counter("fleet.promotions");
    obs_demotions_ = reg.counter("fleet.demotions");
    obs_util_down_ = reg.gauge("fleet.foreground_util_down");
    obs_util_up_ = reg.gauge("fleet.foreground_util_up");
    obs_epoch_handovers_ = reg.gauge("fleet.epoch_handovers");
    obs_epoch_reallocations_ = reg.gauge("fleet.epoch_reallocations");
    obs_hot_cells_ = reg.gauge("fleet.hot_cells");
    obs_supercells_ = reg.gauge("fleet.supercells");
    obs_aggregated_terminals_ = reg.gauge("fleet.aggregated_terminals");
    reg.gauge("fleet.terminals").set(static_cast<double>(placement_.total_terminals()));
    reg.gauge("fleet.cells").set(static_cast<double>(cells_.size()));
  }
  update_shape_gauges();

  // A fleet of one has no demands to evaluate and must stay event-silent so
  // the fallback path is byte-identical to running without a fleet.
  if (config_.size > 1) {
    tick();
    // The construction-time tick usually runs before the campaign has
    // scheduled any workload, so the daemon check in tick() may have seen an
    // empty queue; always give the first epoch a chance to observe the real
    // workload before the daemon contract can retire the timer.
    if (!epoch_timer_.armed()) {
      epoch_timer_.arm(config_.epoch, [this] { tick(); });
    }
  }
}

Fleet::~Fleet() {
  if (access_->cell_share_model() == this) access_->set_cell_share_model(nullptr);
}

Fleet::Cell* Fleet::find_cell(CellId id) {
  const auto it = std::lower_bound(cells_.begin(), cells_.end(), id,
                                   [](const Cell& c, CellId key) { return c.id < key; });
  return (it != cells_.end() && it->id == id) ? &*it : nullptr;
}

void Fleet::make_cell(CellId id, const Placement::CellRange* range) {
  Cell c;
  c.id = id;
  const bool foreground = id == foreground_cell_id_;
  // The foreground cell's ambient fallback forks the access's own labels,
  // honouring the fleet-of-one bit-identity contract (cell_arbiter.hpp).
  // Label-keyed forks also make a promoted cell's streams identical whether
  // the cell went hot at construction or mid-run.
  const std::string base =
      foreground ? access_->config().rng_label
                 : config_.rng_label + "/cell-" + CellGrid::to_string(id);
  c.arbiter = std::make_unique<CellArbiter>(arb_config_, sim_->fork_rng(base + "/load-down"),
                                            sim_->fork_rng(base + "/load-up"));
  c.util_down = cell_util_down_.slot(id);
  c.util_up = cell_util_up_.slot(id);
  if (range != nullptr) {
    c.first_terminal = range->first;
    c.terminals.resize(range->count);
  }
  for (std::uint32_t k = 0; k < c.terminals.size(); ++k) {
    const TerminalId tid = c.first_terminal + k;
    Terminal& t = c.terminals[k];
    t.seed = terminal_seed(tid);
    t.cls = demand_.class_of(t.seed);
    t.down_mbps = terminal_down_mbps_.slot(tid);
    c.arbiter->attach(tid, config_.terminal_weight, /*elastic=*/false);
  }
  if (foreground) {
    c.arbiter->attach(kForegroundId, config_.foreground_weight, /*elastic=*/true);
  }
  for (int dir = 0; dir < 2; ++dir) {
    if (load_override_[dir] >= 0.0) c.arbiter->set_load_override(dir, load_override_[dir]);
  }
  // Handover tracking: the foreground cell reads the access's scheduler in
  // tick(); populated neighbour cells watch the sky from their own centre.
  if (config_.handovers && !foreground && !c.terminals.empty()) ensure_scheduler(c);
  const auto it = std::lower_bound(cells_.begin(), cells_.end(), id,
                                   [](const Cell& cc, CellId key) { return cc.id < key; });
  cells_.insert(it, std::move(c));
}

void Fleet::ensure_scheduler(Cell& c) {
  if (c.scheduler != nullptr) return;
  const leo::StarlinkAccess::Config& ac = access_->config();
  if (constellation_ == nullptr) {
    constellation_ = std::make_unique<leo::Constellation>(ac.shell);
  }
  leo::HandoverScheduler::Config ho;
  ho.terminal = placement_.grid().center_of(c.id);
  ho.slot = ac.handover_slot;
  ho.terminal_min_elevation_deg = ac.terminal_min_elevation_deg;
  ho.gateways = leo::default_european_gateways();
  ho.active_planes_fn = ac.active_planes_fn;
  // Label-keyed fork: the stream is the same whether the scheduler is built
  // at construction or lazily when a migration leaves the cell behind.
  c.scheduler = std::make_unique<leo::HandoverScheduler>(
      *constellation_, std::move(ho),
      sim_->fork_rng(config_.rng_label + "/ho-" + CellGrid::to_string(c.id)));
  c.had_sat = false;  // fresh vantage: restart the change tracker
}

void Fleet::fold_into_aggregate(CellId super, std::uint32_t terminals, std::uint32_t cells) {
  const auto it =
      std::lower_bound(aggregates_.begin(), aggregates_.end(), super,
                       [](const Aggregate& a, CellId key) { return a.super < key; });
  aggregates_stale_ = true;
  if (it != aggregates_.end() && it->super == super) {
    it->terminals += terminals;
    it->cells += cells;
  } else {
    const CellId key = super | HierarchicalGrid::kAggregateKeyBit;
    Aggregate a{super, terminals, cells, cell_util_down_.slot(key), cell_util_up_.slot(key)};
    a.run_since = epochs_;
    aggregates_.insert(it, std::move(a));
  }
}

void Fleet::take_from_aggregate(CellId base, std::uint32_t count) {
  const CellId super = hier_.super_of(base);
  const auto it =
      std::lower_bound(aggregates_.begin(), aggregates_.end(), super,
                       [](const Aggregate& a, CellId key) { return a.super < key; });
  if (it == aggregates_.end() || it->super != super) return;
  aggregates_stale_ = true;
  it->terminals -= std::min(count, it->terminals);
  if (it->cells > 0) it->cells -= 1;
  if (it->cells == 0 && it->terminals == 0) {
    flush_run(*it);
    runs_.fold();
    aggregates_.erase(it);
  }
}

Fleet::Cell* Fleet::promote_cell(CellId id) {
  Cell* existing = find_cell(id);
  if (existing != nullptr) return existing;
  const Placement::CellRange* range = placement_.find(id);
  if (range != nullptr && config_.aggregate_idle) take_from_aggregate(id, range->count);
  make_cell(id, range);
  obs_promotions_.add();
  return find_cell(id);
}

void Fleet::demote_cell(CellId id) {
  if (!config_.aggregate_idle || id == foreground_cell_id_) return;
  const auto it = std::lower_bound(cells_.begin(), cells_.end(), id,
                                   [](const Cell& c, CellId key) { return c.id < key; });
  if (it == cells_.end() || it->id != id || it->pinned) return;
  // The cell's counters move to the retired accumulator so totals() stays
  // monotonic across promote/demote cycles.
  stats::merge(retired_, it->arbiter->stats());
  if (!it->terminals.empty()) {
    fold_into_aggregate(hier_.super_of(id), static_cast<std::uint32_t>(it->terminals.size()), 1);
  }
  flush_runs(*it);
  runs_.fold();
  cells_.erase(it);
  obs_demotions_.add();
}

bool Fleet::set_foreground_position(const leo::GeoPoint& p, TimePoint now) {
  const CellId target = placement_.grid().cell_of(p);
  if (target == foreground_cell_id_) return false;
  const CellId departed = foreground_cell_id_;
  {
    Cell* old_cell = find_cell(departed);
    old_cell->arbiter->detach(kForegroundId);
    // While it hosted the foreground, the departed cell tracked the access's
    // own scheduler; if it stays hot with background members it now needs
    // its own sky watcher at the cell centre.
    const bool stays_hot = !config_.aggregate_idle || old_cell->pinned;
    if (config_.handovers && stays_hot && !old_cell->terminals.empty()) {
      ensure_scheduler(*old_cell);
    }
  }
  Cell* next = promote_cell(target);  // may reallocate cells_
  next->arbiter->attach(kForegroundId, config_.foreground_weight, /*elastic=*/true);
  foreground_cell_id_ = target;
  // Under aggregation the departed cell's members return to the analytic
  // term (unless a vantage pins the cell hot); the flat mode keeps every
  // visited cell live, as before.
  demote_cell(departed);
  foreground_cell_ = find_cell(target);
  (void)now;
  publish_stats(totals());
  update_shape_gauges();
  return true;
}

TerminalId Fleet::add_vantage(const leo::GeoPoint& where, double weight) {
  const CellId cell = placement_.grid().cell_of(where);
  Cell* c = promote_cell(cell);
  c->pinned = true;
  const TerminalId id = next_vantage_id_--;
  c->arbiter->attach(id, weight, /*elastic=*/true);
  vantages_.push_back({id, cell, weight});
  foreground_cell_ = find_cell(foreground_cell_id_);  // promote may realloc cells_
  update_shape_gauges();
  return id;
}

CellId Fleet::vantage_cell(TerminalId vantage) const {
  for (const Vantage& v : vantages_) {
    if (v.id == vantage) return v.cell;
  }
  return 0;
}

double Fleet::vantage_available_fraction(TerminalId vantage, int direction, TimePoint t) {
  const Vantage* v = nullptr;
  for (const Vantage& x : vantages_) {
    if (x.id == vantage) v = &x;
  }
  if (v == nullptr) return 0.0;
  Cell* c = find_cell(v->cell);
  if (c == nullptr) return 0.0;
  const double pool = c->arbiter->available_fraction(direction, t);
  // The elastic pool is split by weight among co-resident elastic members.
  double elastic_weight = v->weight;
  if (v->cell == foreground_cell_id_) elastic_weight += config_.foreground_weight;
  for (const Vantage& x : vantages_) {
    if (x.cell == v->cell && x.id != v->id) elastic_weight += x.weight;
  }
  return elastic_weight > 0.0 ? pool * v->weight / elastic_weight : pool;
}

CellArbiter* Fleet::arbiter(CellId cell) {
  Cell* c = find_cell(cell);
  return c == nullptr ? nullptr : c->arbiter.get();
}

std::uint64_t Fleet::aggregated_terminal_count() const {
  std::uint64_t total = 0;
  for (const Aggregate& a : aggregates_) total += a.terminals;
  return total;
}

double Fleet::analytic_util(int direction, const Aggregate& a,
                            const DemandModel::Demand& expected) const {
  const phy::LoadProcess::Config& load = direction == CellArbiter::kUp
                                             ? arb_config_.uplink_load
                                             : arb_config_.downlink_load;
  double util = load.floor;
  if (a.cells > 0) {
    // Mean per-cell offered load over the supercell: terminals spread evenly
    // across its populated cells, each demanding the class-mix expectation
    // at t. The same floor/ceiling clamps bound it that bound a real
    // arbiter's contention term.
    const double per_cell_bps =
        static_cast<double>(a.terminals) / static_cast<double>(a.cells) *
        (direction == CellArbiter::kUp ? expected.up : expected.down).bits_per_second();
    const double nominal = (direction == CellArbiter::kUp ? arb_config_.cell_uplink
                                                          : arb_config_.cell_downlink)
                               .bits_per_second();
    util = std::clamp(per_cell_bps / std::max(1.0, nominal), load.floor, load.ceiling);
  }
  // Scenario surges compose exactly like the arbiter's override: a floor
  // under the modelled contention, capped at the ceiling.
  if (load_override_[direction] >= 0.0) {
    util = std::min(std::max(util, load_override_[direction]), load.ceiling);
  }
  return util;
}

CellArbiter::Stats Fleet::totals() const {
  CellArbiter::Stats t = retired_;
  for (const Cell& c : cells_) stats::merge(t, c.arbiter->stats());
  return t;
}

void Fleet::publish_stats(const CellArbiter::Stats& t) {
  obs_attaches_.add(t.attaches - published_.attaches);
  obs_detaches_.add(t.detaches - published_.detaches);
  obs_handovers_.add(t.handovers - published_.handovers);
  obs_reallocations_.add(t.reallocations - published_.reallocations);
  published_ = t;
}

void Fleet::update_shape_gauges() {
  obs_hot_cells_.set(static_cast<double>(cells_.size()));
  obs_supercells_.set(static_cast<double>(aggregates_.size()));
  obs_aggregated_terminals_.set(static_cast<double>(aggregated_terminal_count()));
  if (auto* rec = sim_->obs()) {
    rec->registry().gauge("fleet.cells").set(static_cast<double>(cells_.size()));
  }
}

void Fleet::step_cell(Cell& c, TimePoint now, CellTick& out) const {
  out.runs.clear();
  // Cells without a scheduler of their own: only the current foreground
  // cell may fall back to the access's scheduler (a cell the foreground
  // migrated out of and left empty has nobody watching its sky).
  if (config_.handovers && (c.scheduler != nullptr || c.id == foreground_cell_id_)) {
    const leo::HandoverScheduler::Path& path = c.scheduler != nullptr
                                                   ? c.scheduler->path_at(now)
                                                   : access_->scheduler().path_at(now);
    if (path.connected) {
      if (c.had_sat && !(path.sat == c.last_sat)) c.arbiter->note_handover();
      c.last_sat = path.sat;
      c.had_sat = true;
    }
  }
  // Demand only changes at a session boundary: re-evaluate just the members
  // whose window ended, and scan for them only once the earliest window has.
  // A member going idle closes its run; one going active opens a run at this
  // epoch, whose value the restage below sets.
  const std::uint64_t epoch = epochs_;
  const auto n = static_cast<std::uint32_t>(c.terminals.size());
  if (now >= c.next_change) {
    TimePoint next = TimePoint::from_ns(std::numeric_limits<std::int64_t>::max());
    for (std::uint32_t k = 0; k < n; ++k) {
      Terminal& t = c.terminals[k];
      if (now >= t.until) {
        const DemandModel::Session s = demand_.session_at(t.seed, t.cls, now);
        t.until = s.until;
        if (s.demand.active() != t.active) {
          if (t.active) {
            out.runs.push_back({k, t.run_mbps, epoch - t.run_since});
          } else {
            t.run_since = epoch;
          }
          t.active = !t.active;
        }
        c.arbiter->set_demand_at(k, s.demand.down, s.demand.up);
      }
      next = std::min(next, t.until);
    }
    c.next_change = next;
  }
  c.arbiter->reallocate(now);
  out.util_down = c.arbiter->utilization(CellArbiter::kDown, now);
  out.util_up = c.arbiter->utilization(CellArbiter::kUp, now);
  // Allocations only move when the arbiter recomputes (here or in a capacity
  // query since the last epoch), and a flip changes the member's demand, so
  // it always comes with a recompute: otherwise every open run just grows.
  const std::uint64_t recomputes = c.arbiter->recomputes();
  if (recomputes == c.staged_recomputes) return;
  c.staged_recomputes = recomputes;
  for (std::uint32_t k = 0; k < n; ++k) {
    Terminal& t = c.terminals[k];
    if (!t.active) continue;
    const double mbps = c.arbiter->allocation_at(k, CellArbiter::kDown).bits_per_second() / 1e6;
    if (same_bits(mbps, t.run_mbps)) continue;
    if (epoch > t.run_since) out.runs.push_back({k, t.run_mbps, epoch - t.run_since});
    t.run_mbps = mbps;
    t.run_since = epoch;
  }
}

void Fleet::fold_cell(Cell& c, const CellTick& t) {
  c.util_down.add(t.util_down);
  c.util_up.add(t.util_up);
  for (const RunFold& r : t.runs) {
    c.terminals[r.terminal].down_mbps.stage(runs_, r.mbps, r.epochs);
  }
}

void Fleet::flush_runs(Cell& c) {
  for (Terminal& t : c.terminals) {
    if (!t.active) continue;
    t.down_mbps.stage(runs_, t.run_mbps, epochs_ - t.run_since);
    t.run_since = epochs_;
  }
}

void Fleet::flush_run(Aggregate& a) {
  a.util_down.stage(runs_, a.run_down, epochs_ - a.run_since);
  a.util_up.stage(runs_, a.run_up, epochs_ - a.run_since);
  a.run_since = epochs_;
}

void Fleet::refresh_aggregates(TimePoint now) {
  // Each analytic term is a function of the class-mix expectation at now,
  // the override and the aggregate's counts: with none of them moved (no
  // diurnal modulation, no surge, no promotion) there is nothing to do.
  const DemandModel::Demand expected = demand_.expected_at(now);
  if (!aggregates_stale_ &&
      same_bits(expected.down.bits_per_second(),
                aggregates_expected_.down.bits_per_second()) &&
      same_bits(expected.up.bits_per_second(), aggregates_expected_.up.bits_per_second())) {
    return;
  }
  aggregates_expected_ = expected;
  aggregates_stale_ = false;
  for (Aggregate& a : aggregates_) {
    const double down = analytic_util(CellArbiter::kDown, a, expected);
    const double up = analytic_util(CellArbiter::kUp, a, expected);
    if (same_bits(down, a.run_down) && same_bits(up, a.run_up)) continue;
    flush_run(a);
    a.run_down = down;
    a.run_up = up;
  }
}

const stats::KeyedSamples& Fleet::cell_util(int direction) {
  for (Aggregate& a : aggregates_) flush_run(a);
  runs_.fold();
  return direction == CellArbiter::kUp ? cell_util_up_ : cell_util_down_;
}

const stats::KeyedSamples& Fleet::terminal_down_mbps() {
  for (Cell& c : cells_) flush_runs(c);
  runs_.fold();
  return terminal_down_mbps_;
}

void Fleet::tick() {
  const obs::SectionTimer wall{obs::Section::kArbiter};
  const TimePoint now = sim_->now();
  const std::size_t n = cells_.size();
  if (config_.shards == 1 || n <= 1) {
    // Serial reference loop: step + stage per cell, in cell-id order.
    CellTick scratch;
    for (Cell& c : cells_) {
      step_cell(c, now, scratch);
      fold_cell(c, scratch);
    }
  } else {
    // Sharded epochs: contiguous cell-id ranges stepped on pool workers
    // (disjoint per-cell state; each worker writes only its cells' scratch
    // slots), then folded here in the same cell-id order as the serial
    // loop — byte-identical output for any shard count.
    if (pool_ == nullptr) pool_ = std::make_unique<runner::Pool>(config_.shards);
    tick_scratch_.resize(n);
    const std::size_t ranges = std::min(n, static_cast<std::size_t>(pool_->workers()) * 4);
    static_cast<void>(runner::run_indexed(*pool_, ranges, [&](std::size_t r) {
      const std::size_t end = n * (r + 1) / ranges;
      for (std::size_t i = n * r / ranges; i < end; ++i) {
        step_cell(cells_[i], now, tick_scratch_[i]);
      }
      return end;  // run_indexed wants a slot value; the scratch holds the results
    }));
    for (std::size_t i = 0; i < n; ++i) fold_cell(cells_[i], tick_scratch_[i]);
  }
  // Aggregated supercells: one O(1) analytic term each, keyed with the
  // aggregate bit so they never collide with base-cell keys.
  refresh_aggregates(now);
  // Every run this epoch closed, hot terminals' and supercells' alike, in
  // one batch: each touches its own group, so their folds interleave.
  runs_.fold();
  foreground_down_mbps_.add(access_->downlink_capacity(now).bits_per_second() / 1e6);
  foreground_up_mbps_.add(access_->uplink_capacity(now).bits_per_second() / 1e6);
  ++epochs_;
  obs_epochs_.add();
  obs_util_down_.set(foreground_cell_->arbiter->utilization(CellArbiter::kDown, now));
  obs_util_up_.set(foreground_cell_->arbiter->utilization(CellArbiter::kUp, now));
  // Epoch observability: per-epoch arbiter deltas as gauges, and a trace
  // span covering the interval this re-evaluation closed out. One walk over
  // the hot cells' counters serves both these deltas and publish_stats().
  const CellArbiter::Stats t = totals();
  const std::uint64_t d_handovers = t.handovers - published_.handovers;
  const std::uint64_t d_reallocations = t.reallocations - published_.reallocations;
  obs_epoch_handovers_.set(static_cast<double>(d_handovers));
  obs_epoch_reallocations_.set(static_cast<double>(d_reallocations));
  if (auto* rec = sim_->obs(); rec != nullptr && rec->trace().enabled() && ticked_) {
    rec->trace().span("fleet", "epoch", last_tick_at_, now,
                      "{\"epoch\":" + std::to_string(epochs_) +
                          ",\"handovers\":" + std::to_string(d_handovers) +
                          ",\"reallocations\":" + std::to_string(d_reallocations) + "}");
  }
  last_tick_at_ = now;
  ticked_ = true;
  publish_stats(t);
  // Daemon contract: the fleet must never be the only thing keeping
  // `Simulator::run()` (queue-drain termination) alive. At this point our own
  // timer event has already been popped, so an empty queue means no workload,
  // scenario, or campaign event will ever fire again — stop re-arming and let
  // the run terminate. FleetCampaign keeps a sentinel event pending through
  // its whole duration so a fleet-only simulation still ticks to the end.
  if (sim_->pending_events() > 0) {
    epoch_timer_.arm(config_.epoch, [this] { tick(); });
  }
}

double Fleet::available_fraction(int direction, TimePoint t) {
  return foreground_cell_->arbiter->available_fraction(direction, t);
}

void Fleet::set_load_override(int direction, double utilization) {
  // A scripted surge is regional: every cell's ambient floor rises, so both
  // the foreground capacity and the neighbours' contention react. Aggregated
  // supercells read load_override_ inside analytic_util directly.
  load_override_[direction] = utilization;
  aggregates_stale_ = true;
  for (Cell& c : cells_) c.arbiter->set_load_override(direction, utilization);
}

void Fleet::clear_load_override(int direction) {
  load_override_[direction] = -1.0;
  aggregates_stale_ = true;
  for (Cell& c : cells_) c.arbiter->clear_load_override(direction);
}

}  // namespace slp::fleet
