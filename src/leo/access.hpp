// access.hpp — the Starlink access network as a pluggable topology slice.
//
// Builds the chain the paper's PC-Starlink sat behind:
//
//   client -- CPE NAT (192.168.1.1) ==satellite link== CGN (100.64.0.1)
//          -- backhaul -- exit PoP router -- (caller attaches the internet)
//
// The satellite link is where all the Starlink-specific physics lives:
//   * per-packet one-way delay = bent-pipe propagation (from the handover
//     scheduler's geometry) + fixed processing + frame-scheduling jitter,
//     with FIFO order preserved;
//   * time-varying capacity = cell capacity x available fraction from the
//     shared-cell load process;
//   * medium loss = Gilbert-Elliott bursts + rare outages.
//
// Calibration constants target the paper's Figure 1/3/5 numbers and are
// documented field by field.
#pragma once

#include <limits>
#include <memory>

#include "leo/handover.hpp"
#include "leo/places.hpp"
#include "phy/gilbert_elliott.hpp"
#include "phy/load_process.hpp"
#include "phy/outage.hpp"
#include "sim/network.hpp"

namespace slp::leo {

/// Pluggable source of the shared-cell available fraction. The default is
/// the synthetic phy::LoadProcess pair owned by StarlinkAccess; fleet::Fleet
/// installs an implementation backed by real per-cell contention among
/// simulated terminals (src/fleet/cell_arbiter.hpp). Directions follow
/// set_load_override: 0 = up, 1 = down.
class CellShareModel {
 public:
  virtual ~CellShareModel() = default;
  /// Fraction of the nominal cell capacity available to this terminal.
  virtual double available_fraction(int direction, TimePoint t) = 0;
  /// Scenario load-surge hooks (mirror LoadProcess's override semantics).
  virtual void set_load_override(int direction, double utilization) = 0;
  virtual void clear_load_override(int direction) = 0;
};

class StarlinkAccess {
 public:
  struct Config {
    GeoPoint terminal = places::kLouvainLaNeuve;
    Constellation::Config shell;          ///< default: Shell 1 (72x22 @ 550km/53deg)
    Duration handover_slot = Duration::seconds(15);
    double terminal_min_elevation_deg = 25.0;

    // --- capacity (calibrated to Figure 5) ---------------------------
    /// Nominal per-cell capacities; the user sees capacity x (1 - load).
    DataRate cell_downlink = DataRate::mbps(450);
    DataRate cell_uplink = DataRate::mbps(80);
    /// Fast-moving shared-cell load: the 2-second steps are what fills the
    /// queue at roughly constant cwnd and produces Figure 3's RTT-under-load
    /// distribution (capacity dips faster than cubic reacts).
    phy::LoadProcess::Config downlink_load{
        .mean_utilization = 0.55, .volatility = 0.05, .reversion = 0.15,
        .step = Duration::seconds(2), .diurnal_amplitude = 0.0,
        .diurnal_period = Duration::hours(24), .floor = 0.10, .ceiling = 0.93};
    phy::LoadProcess::Config uplink_load{
        .mean_utilization = 0.76, .volatility = 0.04, .reversion = 0.15,
        .step = Duration::seconds(2), .diurnal_amplitude = 0.0,
        .diurnal_period = Duration::hours(24), .floor = 0.2, .ceiling = 0.93};

    // --- latency (calibrated to Figure 1) ----------------------------
    /// Fixed per-direction processing: PHY/MAC pipeline + gateway modem.
    Duration processing_up = Duration::from_millis(1.5);
    Duration processing_down = Duration::from_millis(1.5);
    /// Frame-scheduling jitter: uplink grants arrive on a ~13.3ms cycle
    /// (packets wait U(0, cycle)), downlink scheduling is finer-grained.
    Duration uplink_frame = Duration::from_millis(13.3);
    Duration downlink_frame = Duration::from_millis(4.0);
    /// Per-slot beam/MCS allocation penalty, U(0, x) per direction, constant
    /// within a 15s slot: creates the slot-to-slot dispersion of Figure 1.
    Duration slot_penalty_max = Duration::from_millis(8.0);
    /// Heavy-tail per-packet component (scheduling collisions, retransmit at
    /// the PHY): exponential with this mean, per direction. Produces the
    /// paper's p95 near 70 ms without moving the median much.
    Duration tail_jitter_mean = Duration::from_millis(1.8);
    /// Gateway -> exit PoP terrestrial backhaul (one-way).
    Duration backhaul_delay = Duration::from_millis(2.0);
    /// MAC/PHY-layer queueing under load: extra one-way latency that grows
    /// with the user's own utilization of the direction (square law). This
    /// is sub-IP buffering in dish/gateway modems: it inflates the RTT of
    /// bulk transfers (Figure 3's +45 ms on the median) without requiring
    /// the transport to hold a deep IP queue.
    Duration loaded_latency_max_down = Duration::from_millis(95);
    Duration loaded_latency_max_up = Duration::from_millis(45);
    Duration utilization_window = Duration::seconds(1);

    // --- buffering (calibrated to Figure 3 RTT-under-load) -----------
    std::size_t downlink_queue_bytes = 1536 * 1024;
    std::size_t uplink_queue_bytes = 320 * 1024;

    // --- loss (calibrated to Table 2 / Figure 4) ---------------------
    /// Calibrated for Table 2's messages-mode ratios (~0.40-0.45%): bad
    /// states of ~250ms mean arriving every ~33s give a ~0.42% stationary
    /// loss share; the 0.55 in-state drop rate splits an episode into the
    /// few-packet bursts of Figure 4 while leaving most 12-second transfers
    /// untouched (the paper's Ookla tests mostly ran clean).
    phy::GilbertElliott::Config medium_loss{
        .mean_good = Duration::seconds(24),
        .mean_bad = Duration::from_millis(100),
        .loss_good = 0.0,
        .loss_bad = 0.55};
    /// The uplink medium is slightly worse than the downlink (Table 2 shows
    /// higher loss for uploads in both workloads): same chain, shorter good
    /// states.
    Duration uplink_medium_good = Duration::seconds(16);
    phy::OutageProcess::Config outage{
        .mean_interarrival = Duration::hours(3), .duration_mu = 0.3, .duration_sigma = 0.6};
    /// Loaded-link loss (Table 2's H3 columns): engages only when the
    /// satellite queue is filled past the threshold, producing the paper's
    /// frequent short loss events during bulk transfers while leaving the
    /// idle-link workloads (pings, messages) untouched.
    phy::UtilizationLoss::Config loaded_loss{
        .threshold = 0.45, .p_drop = 0.006, .burst_continue = 0.5, .max_burst = 4};

    /// Multiplies available capacity (campaign epochs, e.g. late-April dip).
    std::function<double(TimePoint)> epoch_capacity_factor;
    /// Adds a per-direction latency offset (campaign epochs).
    std::function<Duration(TimePoint)> epoch_latency_offset;
    /// Planes in service at t (densification epoch of Figure 2); null = all.
    std::function<int(TimePoint)> active_planes_fn;

    std::string rng_label = "starlink-access";
  };

  /// Builds the access slice inside `net`. The caller then wires
  /// `pop_uplink_interface()` into its internet topology.
  StarlinkAccess(sim::Network& net, Config config);
  ~StarlinkAccess();

  [[nodiscard]] sim::Host& client() { return *client_; }
  [[nodiscard]] sim::Router& pop() { return *pop_; }
  [[nodiscard]] sim::Nat& cpe() { return *cpe_; }
  [[nodiscard]] sim::Nat& cgn() { return *cgn_; }
  [[nodiscard]] sim::Link& satellite_link() { return *sat_link_; }
  [[nodiscard]] HandoverScheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Public address of the access (what servers see): the CGN external side.
  [[nodiscard]] sim::Ipv4Addr public_addr() const;

  /// Instantaneous capacities (for tests and debugging).
  [[nodiscard]] DataRate downlink_capacity(TimePoint t);
  [[nodiscard]] DataRate uplink_capacity(TimePoint t);

  /// One-way delay components, exclusive of jitter (for tests).
  [[nodiscard]] Duration propagation_one_way(TimePoint t);

  // --- scenario hooks (src/scenario/) --------------------------------
  // Typed entry points the scenario Injector drives. None of them draws
  // randomness, so applying a scenario never perturbs the seeded streams —
  // the same timeline composes deterministically with any --seeds cell.

  /// Rain fade: attenuates the RF link by `db`. Capacity scales with the
  /// relative spectral efficiency at the faded SNR, and the Gilbert-Elliott
  /// Good-state mean shrinks by the same factor (a wet medium both slows
  /// and roughens the link — WetLinks' observation). 0 restores clear sky.
  void set_rain_attenuation_db(double db);
  [[nodiscard]] double rain_attenuation_db() const { return rain_db_; }

  /// Hard outage window (PoP failure, maintenance blip): closes a loss gate
  /// on both directions of the satellite link; every packet in the window is
  /// destroyed while the stochastic loss chains keep advancing through it.
  void set_hard_outage(bool active);
  [[nodiscard]] bool in_hard_outage() const { return !gate_up_.is_open(); }

  /// Satellite / plane / ground-station failures: delegate to the handover
  /// scheduler's health masks and force a reroute at the next path query.
  void set_satellite_health(SatIndex sat, bool healthy);
  void set_plane_health(int plane, bool healthy);
  void set_gateway_health(int gateway, bool healthy);

  /// Cell load surge: pins the shared-cell utilization of a direction
  /// (0 = up, 1 = down) until cleared.
  void set_load_override(int direction, double utilization);
  void clear_load_override(int direction);

  /// Maintenance reconfiguration: drops the cached handover slot so the
  /// terminal re-acquires a (possibly different) satellite immediately.
  void force_reconfiguration();

  /// Installs (or, with nullptr, removes) the shared-cell capacity source.
  /// While installed, downlink_capacity()/uplink_capacity() read the model
  /// instead of the built-in LoadProcess pair, and load-surge overrides are
  /// forwarded to it. The model must outlive its installation.
  void set_cell_share_model(CellShareModel* model) { cell_model_ = model; }
  [[nodiscard]] CellShareModel* cell_share_model() const { return cell_model_; }

  // --- mobility hooks (src/mobility/) --------------------------------
  // Like the scenario hooks, none of these draws randomness: a moving
  // terminal perturbs geometry and gating only, never the seeded streams.

  /// Re-homes the terminal: future visibility queries (scheduler slots and
  /// the leo.visible_sats probe) run from the new vantage point.
  void set_terminal_position(const GeoPoint& p);

  /// Full sky blockage while driving through a tunnel/underpass: closes a
  /// dedicated loss-gate pair on the satellite link. Kept separate from the
  /// scenario hard-outage gates so a tunnel window composes with (does not
  /// cancel) an overlapping PoP outage.
  void set_mobility_outage(bool active);
  [[nodiscard]] bool in_mobility_outage() const { return !mobility_gate_up_.is_open(); }

  [[nodiscard]] const Constellation& constellation() const { return *constellation_; }

 private:
  [[nodiscard]] Duration access_delay(TimePoint t, bool up);

  /// Exact nanosecond pieces of the most recent access_delay draw for one
  /// direction (0 = up, 1 = down). access_delay fills them as it composes
  /// the delay; the sat link's delay_attribution hook reads them immediately
  /// afterwards, so the pieces always sum to the drawn total exactly.
  struct DelayPieces {
    std::int64_t prop_ns = 0;    ///< bent-pipe propagation + epoch offsets
    std::int64_t queue_ns = 0;   ///< sub-IP loaded latency + FIFO pushback
    std::int64_t access_ns = 0;  ///< processing + frame wait + tail jitter
    std::int64_t stall_ns = 0;   ///< disconnected stall + per-slot penalty
  };
  void attribute_delay(int direction, sim::ProvenanceTag& tag, Duration total) const;

  Config config_;
  std::unique_ptr<Constellation> constellation_;
  std::unique_ptr<HandoverScheduler> scheduler_;
  std::unique_ptr<phy::LoadProcess> down_load_;
  std::unique_ptr<phy::LoadProcess> up_load_;
  std::unique_ptr<phy::GilbertElliott> loss_up_;
  std::unique_ptr<phy::GilbertElliott> loss_down_;
  std::unique_ptr<phy::OutageProcess> outage_up_;
  std::unique_ptr<phy::OutageProcess> outage_down_;
  std::unique_ptr<phy::CompositeLossModel> composite_up_;
  std::unique_ptr<phy::CompositeLossModel> composite_down_;
  std::unique_ptr<phy::UtilizationLoss> loaded_up_;
  std::unique_ptr<phy::UtilizationLoss> loaded_down_;
  phy::GateLoss gate_up_;    ///< scenario hard-outage gates (normally open)
  phy::GateLoss gate_down_;
  phy::GateLoss mobility_gate_up_;  ///< tunnel gates (normally open)
  phy::GateLoss mobility_gate_down_;
  CellShareModel* cell_model_ = nullptr;  ///< non-owning; null = LoadProcess
  double rain_db_ = 0.0;
  double rain_factor_ = 1.0;  ///< capacity multiplier derived from rain_db_
  Rng jitter_rng_;

  sim::Simulator* sim_ = nullptr;
  std::uint64_t visible_probe_id_ = 0;  ///< "leo.visible_sats" sampler probe

  sim::Host* client_ = nullptr;
  sim::Nat* cpe_ = nullptr;
  sim::Nat* cgn_ = nullptr;
  sim::Router* pop_ = nullptr;
  sim::Link* sat_link_ = nullptr;

  // FIFO preservation under jittered delay: a packet may never overtake the
  // previous one on the same direction.
  TimePoint last_arrival_up_;
  TimePoint last_arrival_down_;

  DelayPieces last_draw_[2];  ///< provenance pieces of the latest delay draw

  /// The latest per-slot allocation penalty per direction (0 = up, 1 = down).
  struct SlotPenalty {
    std::int64_t slot = std::numeric_limits<std::int64_t>::min();  ///< none drawn yet
    Duration penalty;
  };
  SlotPenalty slot_penalty_[2];

  // Own-traffic utilization EMA per direction (0 = up, 1 = down), fed by the
  // enqueue hook, consumed by access_delay.
  double ema_bytes_[2] = {0.0, 0.0};
  TimePoint ema_last_[2];
  void note_enqueue(int direction, std::uint32_t bytes, TimePoint now);
  [[nodiscard]] double own_utilization(int direction, TimePoint now, DataRate capacity);
};

}  // namespace slp::leo
