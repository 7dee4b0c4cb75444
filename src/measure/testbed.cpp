#include "measure/testbed.hpp"

#include <cassert>

#include "leo/places.hpp"

namespace slp::measure {

namespace {

using sim::make_addr;
namespace places = leo::places;

constexpr sim::Ipv4Addr kWiredClientAddr = make_addr(130, 104, 0, 2);
constexpr sim::Ipv4Addr kCampusServerAddr = make_addr(130, 104, 0, 10);
constexpr sim::Ipv4Addr kOoklaAddr = make_addr(198, 19, 1, 1);

}  // namespace

std::string_view to_string(AccessKind kind) {
  switch (kind) {
    case AccessKind::kStarlink: return "starlink";
    case AccessKind::kSatCom: return "satcom";
    case AccessKind::kWired: return "wired";
  }
  return "?";
}

std::optional<AccessKind> parse_access(std::string_view name) {
  if (name == "starlink" || name == "leo") return AccessKind::kStarlink;
  if (name == "satcom" || name == "geo") return AccessKind::kSatCom;
  if (name == "wired") return AccessKind::kWired;
  return std::nullopt;
}

Testbed::Testbed(TestbedConfig config)
    : config_{std::move(config)}, sim_{config_.seed}, net_{sim_} {
  sim_.set_fast_forward(config_.fast_forward);
  if (config_.obs.any()) sim_.enable_obs(config_.obs);
  build_core();
}

sim::Host& Testbed::attach_to_core(const std::string& name, sim::Ipv4Addr addr,
                                   Duration one_way, DataRate rate) {
  sim::Host& host = net_.add_host(name, addr);
  sim::Interface& core_if =
      core_->add_interface(make_addr(198, 18, 0, static_cast<std::uint8_t>(next_core_if_++)));
  net_.connect(core_if, host.uplink(), sim::Network::symmetric(rate, one_way, 4 * 1024 * 1024));
  core_->routes().add_route(addr, 32, core_if);
  return host;
}

void Testbed::add_anchor(const std::string& name, const leo::GeoPoint& where, bool european,
                         bool local, Duration tail) {
  // Terrestrial path from the *nearer* European exit (the paper observed two
  // exits, Netherlands and Germany; German anchors ride the Frankfurt one),
  // plus a per-anchor access tail: datacenter anchors sit right in the
  // metro, RIPE volunteer nodes add a residential last mile.
  const Duration path = std::min(leo::fiber_delay(places::kPopAmsterdam, where),
                                 leo::fiber_delay(places::kPopFrankfurt, where));
  const auto index = static_cast<std::uint8_t>(anchors_.size() + 1);
  sim::Host& host = attach_to_core("anchor-" + name, make_addr(198, 19, 0, index), path + tail);
  anchors_.push_back(Anchor{name, &host, where, european, local});
}

void Testbed::build_core() {
  core_ = &net_.add_router("internet-core");

  // --- Starlink access -------------------------------------------------
  starlink_ = std::make_unique<leo::StarlinkAccess>(net_, config_.starlink);
  {
    sim::Interface& pop_if = starlink_->pop().add_interface(make_addr(198, 18, 1, 1));
    sim::Interface& core_if = core_->add_interface(make_addr(198, 18, 1, 2));
    net_.connect(pop_if, core_if, sim::Network::symmetric(DataRate::gbps(40),
                                                          Duration::from_micros(300),
                                                          8 * 1024 * 1024));
    starlink_->pop().routes().add_default(pop_if);
    core_->routes().add_route(make_addr(149, 6, 50, 0), 24, core_if);
  }
  // Mobility before injector/fleet: a config-driven route moves the
  // terminal to its start at construction, so the fleet's foreground cell
  // and the first scenario epoch both see the departed vantage.
  const bool want_mobility =
      !config_.mobility.route.trivial() ||
      (config_.scenario != nullptr && config_.scenario->contains(scenario::EventKind::kMove));
  if (want_mobility) {
    mobile_ = std::make_unique<mobility::MobileTerminal>(sim_, *starlink_, config_.mobility);
  }
  if (config_.scenario != nullptr && !config_.scenario->empty()) {
    injector_ = std::make_unique<scenario::Injector>(
        sim_, config_.scenario, scenario::Injector::Hooks{starlink_.get(), mobile_.get()});
  }
  if (config_.fleet.enabled()) {
    fleet_ = std::make_unique<fleet::Fleet>(sim_, *starlink_, config_.fleet);
    if (mobile_ != nullptr) mobile_->set_fleet(fleet_.get());
  }

  // --- SatCom access ---------------------------------------------------
  if (config_.with_satcom) {
    geo_ = std::make_unique<geo::GeoAccess>(net_, config_.geo);
    sim::Interface& pop_if = geo_->pop().add_interface(make_addr(198, 18, 2, 1));
    sim::Interface& core_if = core_->add_interface(make_addr(198, 18, 2, 2));
    net_.connect(pop_if, core_if, sim::Network::symmetric(DataRate::gbps(40),
                                                          Duration::from_micros(300),
                                                          8 * 1024 * 1024));
    geo_->pop().routes().add_default(pop_if);
    core_->routes().add_route(make_addr(185, 44, 3, 0), 24, core_if);
  }

  // --- Campus: PC-Wired and the measurement server ----------------------
  {
    sim::Router& campus = net_.add_router("uclouvain-gw");
    wired_client_ = &net_.add_host("pc-wired", kWiredClientAddr);
    campus_server_ = &net_.add_host("campus-server", kCampusServerAddr);
    sim::Interface& campus_c = campus.add_interface(make_addr(130, 104, 0, 1));
    sim::Interface& campus_s = campus.add_interface(make_addr(130, 104, 0, 9));
    net_.connect(wired_client_->uplink(), campus_c,
                 sim::Network::symmetric(DataRate::gbps(1), Duration::from_micros(250),
                                         8 * 1024 * 1024));
    net_.connect(campus_server_->uplink(), campus_s,
                 sim::Network::symmetric(DataRate::gbps(10), Duration::from_micros(150),
                                         16 * 1024 * 1024));
    sim::Interface& campus_up = campus.add_interface(make_addr(198, 18, 3, 1));
    sim::Interface& core_if = core_->add_interface(make_addr(198, 18, 3, 2));
    net_.connect(campus_up, core_if,
                 sim::Network::symmetric(DataRate::gbps(10), config_.campus_core_delay,
                                         16 * 1024 * 1024));
    campus.routes().add_route(kWiredClientAddr, 32, campus_c);
    campus.routes().add_route(kCampusServerAddr, 32, campus_s);
    campus.routes().add_default(campus_up);
    core_->routes().add_route(make_addr(130, 104, 0, 0), 16, core_if);
  }

  // --- Anchors (paper §2: 11 of them) ------------------------------------
  // Tails: Belgian RIPE volunteer nodes carry a residential last mile (the
  // paper's locals have *higher* medians than the German datacenter probes);
  // Singapore's tail stands in for the Suez/India cable detour that the
  // great-circle estimate misses.
  const Duration residential = Duration::from_millis(2.5);
  const Duration metro = Duration::from_micros(300);
  add_anchor("brussels-be", places::kBrussels, true, true, residential);
  add_anchor("antwerp-be", places::kAntwerp, true, true, residential);
  add_anchor("ghent-be", places::kGhent, true, true, residential);
  add_anchor("liege-be", places::kLiege, true, true, residential);
  // The paper's Dutch anchors sit between the Belgians and the Germans.
  add_anchor("amsterdam-1", places::kAmsterdam, true, false, Duration::from_millis(2.0));
  add_anchor("amsterdam-2", places::kAmsterdam, true, false, Duration::from_millis(2.4));
  add_anchor("nuremberg-1", places::kNuremberg, true, false, metro);
  add_anchor("nuremberg-2", places::kNuremberg, true, false, Duration::from_micros(600));
  add_anchor("new-york", places::kNewYork, false, false, Duration::from_millis(1.0));
  add_anchor("fremont", places::kFremont, false, false, Duration::from_millis(1.0));
  add_anchor("singapore", places::kSingapore, false, false, Duration::from_millis(22.0));

  // --- Ookla-style test server: closest to the vantage (Brussels metro).
  ookla_server_ = &attach_to_core(
      "ookla-brussels", kOoklaAddr,
      leo::fiber_delay(places::kPopAmsterdam, places::kBrussels) + Duration::from_micros(300),
      DataRate::gbps(40));

  // --- The recursive resolver everyone uses (near the exit PoPs). --------
  resolver_host_ = &attach_to_core("resolver", make_addr(198, 19, 3, 1),
                                   Duration::from_micros(800), DataRate::gbps(40));
  dns_server_ = std::make_unique<web::DnsServer>(*resolver_host_);

  // --- One web-server host per access (see header). ----------------------
  for (int i = 0; i < 3; ++i) {
    web_hosts_[i] = &attach_to_core(
        "web-" + std::string{to_string(static_cast<AccessKind>(i))},
        make_addr(198, 19, 2, static_cast<std::uint8_t>(i + 1)), Duration::from_millis(1.5),
        DataRate::gbps(40));
  }
}

sim::Host& Testbed::client(AccessKind kind) {
  switch (kind) {
    case AccessKind::kStarlink: return starlink_->client();
    case AccessKind::kSatCom:
      assert(geo_ != nullptr);
      return geo_->client();
    case AccessKind::kWired: return *wired_client_;
  }
  return *wired_client_;
}

sim::Host& Testbed::web_server_host(AccessKind kind) {
  return *web_hosts_[static_cast<int>(kind)];
}

}  // namespace slp::measure
