#include "leo/access.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "sim/provenance.hpp"

namespace slp::leo {

namespace {

using sim::make_addr;

constexpr sim::Ipv4Addr kClientAddr = make_addr(192, 168, 1, 100);
constexpr sim::Ipv4Addr kCpeExternal = make_addr(100, 64, 7, 23);
constexpr sim::Ipv4Addr kCgnExternal = make_addr(149, 6, 50, 1);
constexpr sim::Ipv4Addr kPopGatewayIf = make_addr(149, 6, 50, 254);

}  // namespace

StarlinkAccess::StarlinkAccess(sim::Network& net, Config config)
    : config_{std::move(config)},
      jitter_rng_{net.sim().fork_rng(config_.rng_label + "/jitter")} {
  constellation_ = std::make_unique<Constellation>(config_.shell);

  HandoverScheduler::Config ho;
  ho.terminal = config_.terminal;
  ho.slot = config_.handover_slot;
  ho.terminal_min_elevation_deg = config_.terminal_min_elevation_deg;
  ho.gateways = default_european_gateways();
  ho.active_planes_fn = config_.active_planes_fn;
  scheduler_ = std::make_unique<HandoverScheduler>(*constellation_, std::move(ho),
                                                   net.sim().fork_rng(config_.rng_label + "/ho"));

  down_load_ = std::make_unique<phy::LoadProcess>(
      config_.downlink_load, net.sim().fork_rng(config_.rng_label + "/load-down"));
  up_load_ = std::make_unique<phy::LoadProcess>(
      config_.uplink_load, net.sim().fork_rng(config_.rng_label + "/load-up"));

  phy::GilbertElliott::Config up_loss = config_.medium_loss;
  up_loss.mean_good = config_.uplink_medium_good;
  loss_up_ = std::make_unique<phy::GilbertElliott>(
      up_loss, net.sim().fork_rng(config_.rng_label + "/ge-up"));
  loss_down_ = std::make_unique<phy::GilbertElliott>(
      config_.medium_loss, net.sim().fork_rng(config_.rng_label + "/ge-down"));
  outage_up_ = std::make_unique<phy::OutageProcess>(
      config_.outage, net.sim().fork_rng(config_.rng_label + "/outage"));
  // Outages hit both directions simultaneously (the link is gone): share the
  // window by forking the *same* label so both processes draw identically.
  outage_down_ = std::make_unique<phy::OutageProcess>(
      config_.outage, net.sim().fork_rng(config_.rng_label + "/outage"));
  // Scenario and mobility gates last: they draw no randomness, so their
  // presence (open or closed) leaves the stochastic children's streams
  // untouched.
  composite_up_ = std::make_unique<phy::CompositeLossModel>(std::vector<sim::LossModel*>{
      loss_up_.get(), outage_up_.get(), &gate_up_, &mobility_gate_up_});
  composite_down_ = std::make_unique<phy::CompositeLossModel>(std::vector<sim::LossModel*>{
      loss_down_.get(), outage_down_.get(), &gate_down_, &mobility_gate_down_});
  loaded_up_ = std::make_unique<phy::UtilizationLoss>(
      config_.loaded_loss, net.sim().fork_rng(config_.rng_label + "/loaded-up"));
  loaded_down_ = std::make_unique<phy::UtilizationLoss>(
      config_.loaded_loss, net.sim().fork_rng(config_.rng_label + "/loaded-down"));

  // --- nodes ---------------------------------------------------------
  client_ = &net.add_host("pc-starlink", kClientAddr);
  cpe_ = &net.add_nat("starlink-cpe", sim::kCpeNatAddr, kCpeExternal);
  cgn_ = &net.add_nat("starlink-cgn", sim::kCgnNatAddr, kCgnExternal);
  pop_ = &net.add_router("starlink-pop");

  // --- LAN: client <-> CPE ------------------------------------------
  // Generous queue: the host NIC/qdisc absorbs cwnd-sized bursts; drops
  // must happen at the satellite bottleneck, not on gigabit Ethernet.
  net.connect(client_->uplink(), cpe_->inside(),
              sim::Network::symmetric(DataRate::gbps(1), Duration::from_micros(250),
                                      /*queue_bytes=*/8 * 1024 * 1024));

  // --- satellite link: CPE <-> CGN -----------------------------------
  sim::Link::Config sat;
  sat.a_to_b.rate_fn = [this](TimePoint t) { return uplink_capacity(t); };
  sat.a_to_b.delay_fn = [this](TimePoint t) { return access_delay(t, /*up=*/true); };
  sat.a_to_b.queue_capacity_bytes = config_.uplink_queue_bytes;
  sat.a_to_b.loss = composite_up_.get();
  sat.a_to_b.aqm = [this](TimePoint t, const sim::Packet& pkt, double fraction) {
    note_enqueue(0, pkt.size_bytes, t);
    return loaded_up_->should_drop(t, pkt, fraction);
  };
  sat.a_to_b.delay_attribution = [this](sim::ProvenanceTag& tag, Duration total) {
    attribute_delay(0, tag, total);
  };
  sat.b_to_a.rate_fn = [this](TimePoint t) { return downlink_capacity(t); };
  sat.b_to_a.delay_fn = [this](TimePoint t) { return access_delay(t, /*up=*/false); };
  sat.b_to_a.queue_capacity_bytes = config_.downlink_queue_bytes;
  sat.b_to_a.loss = composite_down_.get();
  sat.b_to_a.aqm = [this](TimePoint t, const sim::Packet& pkt, double fraction) {
    note_enqueue(1, pkt.size_bytes, t);
    return loaded_down_->should_drop(t, pkt, fraction);
  };
  sat.b_to_a.delay_attribution = [this](sim::ProvenanceTag& tag, Duration total) {
    attribute_delay(1, tag, total);
  };
  sat.name = "sat";
  sat_link_ = &net.connect(cpe_->outside(), cgn_->inside(), std::move(sat));

  // --- observability --------------------------------------------------
  sim_ = &net.sim();
  if (auto* rec = sim_->obs()) {
    scheduler_->set_obs(rec);
    loss_up_->set_obs(rec, "up");
    loss_down_->set_obs(rec, "down");
    // Up and down outage processes draw identical windows; wire one.
    outage_up_->set_obs(rec);
    if (rec->sampler() != nullptr) {
      visible_probe_id_ = rec->sampler()->add_probe("leo.visible_sats", [this](TimePoint t) {
        const int active =
            config_.active_planes_fn ? config_.active_planes_fn(t) : 0;
        return static_cast<double>(constellation_->count_visible(
            config_.terminal, t, config_.terminal_min_elevation_deg, active));
      });
    }
  }

  // --- backhaul: CGN <-> exit PoP -------------------------------------
  sim::Interface& pop_if = pop_->add_interface(kPopGatewayIf);
  net.connect(cgn_->outside(), pop_if,
              sim::Network::symmetric(DataRate::gbps(10), config_.backhaul_delay));
  pop_->routes().add_route(make_addr(149, 6, 50, 0), 24, pop_if);
}

StarlinkAccess::~StarlinkAccess() {
  if (visible_probe_id_ != 0 && sim_->obs() != nullptr && sim_->obs()->sampler() != nullptr) {
    sim_->obs()->sampler()->remove_probe(visible_probe_id_);
  }
}

sim::Ipv4Addr StarlinkAccess::public_addr() const { return kCgnExternal; }

DataRate StarlinkAccess::downlink_capacity(TimePoint t) {
  double fraction = (cell_model_ != nullptr ? cell_model_->available_fraction(1, t)
                                            : down_load_->available_fraction(t)) *
                    rain_factor_;
  if (config_.epoch_capacity_factor) fraction *= config_.epoch_capacity_factor(t);
  const DataRate r = config_.cell_downlink * fraction;
  return std::max(r, DataRate::mbps(1));
}

DataRate StarlinkAccess::uplink_capacity(TimePoint t) {
  double fraction = (cell_model_ != nullptr ? cell_model_->available_fraction(0, t)
                                            : up_load_->available_fraction(t)) *
                    rain_factor_;
  if (config_.epoch_capacity_factor) fraction *= config_.epoch_capacity_factor(t);
  const DataRate r = config_.cell_uplink * fraction;
  return std::max(r, DataRate::mbps(1));
}

void StarlinkAccess::set_rain_attenuation_db(double db) {
  rain_db_ = std::max(0.0, db);
  // Relative spectral efficiency log2(1+SNR) at the faded SNR, against a
  // ~10 dB clear-sky link margin: 3 dB of rain costs ~25% capacity, 10 dB
  // about 70% — the collapse WetLinks correlates with heavy rain.
  constexpr double kClearSkySnrDb = 10.0;
  const double clear = std::log2(1.0 + std::pow(10.0, kClearSkySnrDb / 10.0));
  const double faded = std::log2(1.0 + std::pow(10.0, (kClearSkySnrDb - rain_db_) / 10.0));
  rain_factor_ = std::clamp(faded / clear, 0.05, 1.0);
  // The wet medium is also burstier: Bad states arrive more often in
  // proportion to the lost margin.
  loss_up_->set_good_scale(sim_->now(), rain_factor_);
  loss_down_->set_good_scale(sim_->now(), rain_factor_);
}

void StarlinkAccess::set_hard_outage(bool active) {
  gate_up_.set_open(!active);
  gate_down_.set_open(!active);
}

void StarlinkAccess::set_satellite_health(SatIndex sat, bool healthy) {
  scheduler_->set_satellite_health(sat, healthy);
}

void StarlinkAccess::set_plane_health(int plane, bool healthy) {
  scheduler_->set_plane_health(plane, healthy);
}

void StarlinkAccess::set_gateway_health(int gateway, bool healthy) {
  scheduler_->set_gateway_health(gateway, healthy);
}

void StarlinkAccess::set_load_override(int direction, double utilization) {
  (direction == 0 ? up_load_ : down_load_)->set_utilization_override(utilization);
  if (cell_model_ != nullptr) cell_model_->set_load_override(direction, utilization);
}

void StarlinkAccess::clear_load_override(int direction) {
  (direction == 0 ? up_load_ : down_load_)->clear_override();
  if (cell_model_ != nullptr) cell_model_->clear_load_override(direction);
}

void StarlinkAccess::force_reconfiguration() { scheduler_->invalidate(); }

void StarlinkAccess::set_terminal_position(const GeoPoint& p) {
  config_.terminal = p;
  scheduler_->set_terminal(p);  // the leo.visible_sats probe reads config_.terminal
}

void StarlinkAccess::set_mobility_outage(bool active) {
  mobility_gate_up_.set_open(!active);
  mobility_gate_down_.set_open(!active);
}

Duration StarlinkAccess::propagation_one_way(TimePoint t) {
  const HandoverScheduler::Path& path = scheduler_->path_at(t);
  if (!path.connected) return config_.handover_slot;  // effectively stalled
  return path.propagation_one_way();
}

void StarlinkAccess::note_enqueue(int direction, std::uint32_t bytes, TimePoint now) {
  const double window_s = config_.utilization_window.to_seconds();
  const double dt = (now - ema_last_[direction]).to_seconds();
  if (dt > 0) {
    ema_bytes_[direction] *= std::exp(-dt / window_s);
    ema_last_[direction] = now;
  }
  ema_bytes_[direction] += bytes;
}

double StarlinkAccess::own_utilization(int direction, TimePoint now, DataRate capacity) {
  const double window_s = config_.utilization_window.to_seconds();
  const double dt = (now - ema_last_[direction]).to_seconds();
  const double bytes = ema_bytes_[direction] * std::exp(-std::max(0.0, dt) / window_s);
  const double rate_bps = bytes * 8.0 / window_s;
  return std::clamp(rate_bps / capacity.bits_per_second(), 0.0, 1.0);
}

Duration StarlinkAccess::access_delay(TimePoint t, bool up) {
  const int direction = up ? 0 : 1;
  DelayPieces& pieces = last_draw_[direction];
  pieces = DelayPieces{};

  // Each term is accumulated into exactly one provenance piece, so the four
  // pieces always sum to the returned delay to the nanosecond. path_at is
  // slot-cached, so re-querying connectivity draws nothing.
  const Duration prop = propagation_one_way(t);
  const bool stalled = !scheduler_->path_at(t).connected;
  (stalled ? pieces.stall_ns : pieces.prop_ns) += prop.ns();
  Duration delay = prop;

  const Duration proc = up ? config_.processing_up : config_.processing_down;
  pieces.access_ns += proc.ns();
  delay += proc;

  // Sub-IP (MAC/PHY) queueing under own load.
  const DataRate capacity = up ? uplink_capacity(t) : downlink_capacity(t);
  const double utilization = own_utilization(direction, t, capacity);
  const Duration loaded = (up ? config_.loaded_latency_max_up : config_.loaded_latency_max_down) *
                          (utilization * utilization);
  pieces.queue_ns += loaded.ns();
  delay += loaded;

  // Frame-scheduling wait: fresh draw per packet.
  const Duration frame = up ? config_.uplink_frame : config_.downlink_frame;
  const Duration frame_wait =
      Duration::from_seconds(jitter_rng_.uniform(0.0, frame.to_seconds()));
  pieces.access_ns += frame_wait.ns();
  delay += frame_wait;
  // Heavy-tail component (PHY retransmissions, scheduling collisions).
  const Duration tail = Duration::from_seconds(
      jitter_rng_.exponential(config_.tail_jitter_mean.to_seconds()));
  pieces.access_ns += tail.ns();
  delay += tail;

  // Beam/MCS allocation penalty: constant within a 15s slot & direction.
  // A fork depends only on the seed and the label, so drawing it once per
  // slot gives the value every packet of the slot used to redraw.
  const std::int64_t slot = t.ns() / config_.handover_slot.ns();
  SlotPenalty& cached = slot_penalty_[direction];
  if (cached.slot != slot) {
    Rng slot_rng = jitter_rng_.fork((up ? "slot-up/" : "slot-down/") + std::to_string(slot));
    cached.slot = slot;
    cached.penalty = Duration::from_seconds(
        slot_rng.uniform(0.0, config_.slot_penalty_max.to_seconds()));
  }
  const Duration slot_penalty = cached.penalty;
  pieces.stall_ns += slot_penalty.ns();
  delay += slot_penalty;

  if (config_.epoch_latency_offset) {
    const Duration offset = config_.epoch_latency_offset(t);
    pieces.prop_ns += offset.ns();
    delay += offset;
  }

  // FIFO preservation: never deliver before the previous packet in this
  // direction (real schedulers drain queues in order). The pushback is time
  // spent behind the previous packet, i.e. queueing.
  TimePoint& last = up ? last_arrival_up_ : last_arrival_down_;
  TimePoint arrival = t + delay;
  if (arrival <= last) arrival = last + Duration::nanos(1);
  last = arrival;
  pieces.queue_ns += ((arrival - t) - delay).ns();
  return arrival - t;
}

void StarlinkAccess::attribute_delay(int direction, sim::ProvenanceTag& tag,
                                     Duration total) const {
  const DelayPieces& p = last_draw_[direction];
  if (p.prop_ns != 0) tag.add(obs::kPropagation, Duration::nanos(p.prop_ns));
  if (p.queue_ns != 0) tag.add(obs::kQueue, Duration::nanos(p.queue_ns));
  if (p.access_ns != 0) tag.add(obs::kAccessProc, Duration::nanos(p.access_ns));
  if (p.stall_ns != 0) tag.add(obs::kHandoverStall, Duration::nanos(p.stall_ns));
  assert(p.prop_ns + p.queue_ns + p.access_ns + p.stall_ns == total.ns() &&
         "access-delay pieces must sum to the drawn delay");
  (void)total;
}

}  // namespace slp::leo
