// testbed.hpp — the complete measurement universe of the paper, §2.
//
// One simulated internet containing:
//   * PC-Starlink behind the leo:: access (exit PoP in the AMS/FRA region);
//   * PC-SatCom behind the geo:: access with its PEP;
//   * PC-Wired on the UCLouvain campus network (1 Gbit/s);
//   * the campus measurement server (QUIC H3 + speedtest + Wehe targets);
//   * the 11 ping anchors: 4 Belgian RIPE nodes, Amsterdam x2, Nuremberg x2,
//     New York, Fremont, Singapore — terrestrial latencies derived from
//     fiber great-circle distances out of the European exit region (no ISLs:
//     transatlantic traffic leaves through the same exits, §3.1);
//   * an Ookla-style test server close to the vantage (Brussels);
//   * one web-server host per access (the paper's three PCs visit the same
//     sites; separate hosts keep the plan bookkeeping exact, DESIGN.md §4).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "fleet/run_env.hpp"
#include "geo/geo_access.hpp"
#include "leo/access.hpp"
#include "mobility/mobile_terminal.hpp"
#include "obs/recorder.hpp"
#include "scenario/injector.hpp"
#include "sim/network.hpp"
#include "web/dns.hpp"
#include "tcp/tcp.hpp"
#include "quic/quic.hpp"

namespace slp::measure {

enum class AccessKind { kStarlink, kSatCom, kWired };

[[nodiscard]] std::string_view to_string(AccessKind kind);

struct TestbedConfig : fleet::RunEnv {
  TestbedConfig() = default;
  /// A campaign's Testbed: the campaign Config's env, everything else default.
  explicit TestbedConfig(const fleet::RunEnv& env) : fleet::RunEnv{env} {}

  leo::StarlinkAccess::Config starlink;
  geo::GeoAccess::Config geo;
  bool with_satcom = true;
  /// Campus <-> internet-core one-way delay (Louvain-la-Neuve to AMS).
  Duration campus_core_delay = Duration::from_millis(2.2);
  /// Simulated neighbour terminals sharing the Starlink cells (src/fleet/).
  /// size 0 keeps the synthetic LoadProcess; size 1 attaches only the
  /// foreground terminal (bit-identical to size 0 by construction).
  fleet::Fleet::Config fleet;
  /// Terminal motion (src/mobility/). A trivial route builds no
  /// MobileTerminal at all unless the scenario carries a `move` directive;
  /// a non-trivial route with speed_scale 0 builds a fully passive one —
  /// both keep exports byte-identical to a static run.
  mobility::MobileTerminal::Config mobility;
};

class Testbed {
 public:
  struct Anchor {
    std::string name;
    sim::Host* host = nullptr;
    leo::GeoPoint location;
    bool european = false;
    bool local = false;  ///< in Belgium, like the 4 local RIPE nodes
  };

  explicit Testbed(TestbedConfig config = {});

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] sim::Network& net() { return net_; }
  [[nodiscard]] leo::StarlinkAccess& starlink() { return *starlink_; }
  /// Null unless the config carried a non-empty scenario.
  [[nodiscard]] const scenario::Injector* injector() const { return injector_.get(); }
  /// Null unless the config asked for a fleet (fleet.size > 0).
  [[nodiscard]] fleet::Fleet* fleet() { return fleet_.get(); }
  /// Null unless the config carried a non-trivial route or a `move` event.
  [[nodiscard]] mobility::MobileTerminal* mobility() { return mobile_.get(); }
  [[nodiscard]] geo::GeoAccess& satcom() { return *geo_; }
  [[nodiscard]] bool has_satcom() const { return geo_ != nullptr; }

  /// The measurement client of a given access technology.
  [[nodiscard]] sim::Host& client(AccessKind kind);

  [[nodiscard]] sim::Host& campus_server() { return *campus_server_; }
  [[nodiscard]] sim::Host& ookla_server() { return *ookla_server_; }
  /// The ISP-side recursive resolver (reached across the access link).
  [[nodiscard]] sim::Host& resolver_host() { return *resolver_host_; }
  [[nodiscard]] web::DnsServer& dns() { return *dns_server_; }
  [[nodiscard]] sim::Host& web_server_host(AccessKind kind);
  [[nodiscard]] const std::vector<Anchor>& anchors() const { return anchors_; }
  [[nodiscard]] const Anchor& anchor(std::size_t i) const { return anchors_.at(i); }

  /// Runs the simulation for `d` of simulated time.
  void run_for(Duration d) { sim_.run_for(d); }

  /// Freezes this cell's observability data (a valid empty snapshot when obs
  /// is off, so campaign results merge uniformly across configurations).
  [[nodiscard]] obs::Snapshot take_obs();

 private:
  void build_core();
  void add_anchor(const std::string& name, const leo::GeoPoint& where, bool european,
                  bool local, Duration tail);
  sim::Host& attach_to_core(const std::string& name, sim::Ipv4Addr addr, Duration one_way,
                            DataRate rate = DataRate::gbps(10));

  TestbedConfig config_;
  sim::Simulator sim_;
  sim::Network net_;
  std::unique_ptr<leo::StarlinkAccess> starlink_;
  /// Declared after starlink_: repositions the access's terminal; its
  /// destructor uninstalls the scheduler's candidate filter.
  std::unique_ptr<mobility::MobileTerminal> mobile_;
  /// Declared after both: the injector's hooks point into the access and
  /// the mobile terminal.
  std::unique_ptr<scenario::Injector> injector_;
  /// Declared after both: the fleet installs itself as the access's cell
  /// share model and must uninstall before the access dies.
  std::unique_ptr<fleet::Fleet> fleet_;
  std::unique_ptr<geo::GeoAccess> geo_;
  sim::Router* core_ = nullptr;
  sim::Host* wired_client_ = nullptr;
  sim::Host* campus_server_ = nullptr;
  sim::Host* ookla_server_ = nullptr;
  sim::Host* resolver_host_ = nullptr;
  std::unique_ptr<web::DnsServer> dns_server_;
  sim::Host* web_hosts_[3] = {nullptr, nullptr, nullptr};
  std::vector<Anchor> anchors_;
  int next_core_if_ = 1;
};

}  // namespace slp::measure
