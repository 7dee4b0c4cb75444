#include "measure/campaign.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <stdexcept>

#include "apps/h3.hpp"
#include "apps/messages.hpp"
#include "apps/ping.hpp"
#include "apps/speedtest.hpp"
#include "measure/session_series.hpp"
#include "web/browser.hpp"
#include "web/page.hpp"
#include "web/server.hpp"

namespace slp::measure {
namespace {

/// Owns fire-and-forget PingApps: each app frees itself when its round
/// completes, right after running the caller's completion callback.
class PingPool {
 public:
  apps::PingApp& add(sim::Host& host, const apps::PingApp::Config& config,
                     std::function<void(const std::vector<apps::PingApp::Probe>&)> done) {
    const auto app = live_.emplace(live_.end(), host, config);
    app->on_complete = [this, app, done = std::move(done)](const auto& probes) {
      done(probes);
      live_.erase(app);  // destroys this closure: touch nothing after it
    };
    return *app;
  }

 private:
  std::list<apps::PingApp> live_;
};

/// Wires one end of a QUIC data transfer: RTT is sampled at the data
/// sender, loss is observed at the receiver's packet-number gaps.
void observe_end(quic::QuicConnection& conn, bool sends, stats::Samples& rtt_ms,
                 LossAnalyzer& analyzer) {
  if (sends) {
    conn.hooks.on_packet_acked = [&rtt_ms](std::uint64_t, Duration rtt) {
      rtt_ms.add(rtt.to_millis());
    };
  } else {
    analyzer.attach(conn);
  }
}

}  // namespace

void apply_paper_epochs(leo::StarlinkAccess::Config& config) {
  const TimePoint feb11 = TimePoint::epoch() + Duration::days(53);
  const TimePoint late_april = TimePoint::epoch() + Duration::days(125);
  const TimePoint early_may = TimePoint::epoch() + Duration::days(139);
  const TimePoint session2 = TimePoint::epoch() + Duration::days(126);

  config.active_planes_fn = [feb11](TimePoint t) { return t < feb11 ? 56 : 72; };
  config.epoch_latency_offset = [feb11, late_april, early_may](TimePoint t) {
    // Pre-densification: sparser candidate set means worse assigned beams
    // on top of the longer slant ranges (the Figure 2 step is ~2-3 ms).
    if (t < feb11) return Duration::from_millis(1.4);
    if (t >= late_april && t < early_may) return Duration::from_millis(4.0);
    return Duration::zero();
  };
  config.epoch_capacity_factor = [late_april, early_may, session2](TimePoint t) {
    double factor = 1.0;
    if (t >= session2) factor *= 1.05;                     // more downlink capacity
    if (t >= late_april && t < early_may) factor *= 0.92;  // loaded period
    return factor;
  };
}

// ===================================================================== pings

PingCampaign::Result PingCampaign::run(const Config& config) {
  // The paper pings over Starlink only.
  TestbedConfig tb_config{config, AccessKind::kStarlink, config.fleet};
  if (config.epochs) apply_paper_epochs(tb_config.starlink);
  Testbed bed{tb_config};

  Result result;
  for (const auto& anchor : bed.anchors()) {
    result.anchors.push_back(AnchorResult{anchor.name, anchor.european, anchor.local, {}});
  }
  if (config.obs.provenance) {
    result.eu_components.assign(obs::kTagComponents, stats::TimeBinner{Duration::hours(6)});
  }

  sim::Host& client = bed.starlink().client();
  PingPool pings;

  const auto rounds = static_cast<std::int64_t>(config.duration / config.cadence);
  for (std::int64_t round = 0; round < rounds; ++round) {
    const TimePoint at = TimePoint::epoch() + config.cadence * static_cast<double>(round);
    bed.sim().schedule_at(at, [&, at] {
      // Anchors are probed staggered, like a sequential ping script: packets
      // launched back-to-back would otherwise share the access link's FIFO
      // and let later probes inherit earlier probes' worst-case jitter.
      for (std::size_t a = 0; a < bed.anchors().size(); ++a) {
        apps::PingApp::Config ping_cfg;
        ping_cfg.target = bed.anchor(a).host->addr();
        ping_cfg.count = config.pings_per_round;
        ping_cfg.flow = a + 1;  // provenance key: anchor index (0 = anonymous)
        apps::PingApp& app = pings.add(client, ping_cfg, [&, a, at](const auto& probes) {
          AnchorResult& anchor = result.anchors[a];
          for (const auto& probe : probes) {
            result.pings_sent++;
            if (probe.lost) {
              result.pings_lost++;
              continue;
            }
            const double ms = probe.rtt.to_millis();
            anchor.rtt_ms.add(ms);
            if (anchor.european) {
              result.eu_timeline.add(at, ms);
              for (std::size_t c = 0; c < result.eu_components.size(); ++c) {
                result.eu_components[c].add(at, static_cast<double>(probe.comp_ns[c]) * 1e-6);
              }
              const auto hour =
                  static_cast<std::size_t>((at.ns() / Duration::hours(1).ns()) % 24);
              result.eu_by_hour[hour].push_back(ms);
            }
          }
        });
        bed.sim().schedule_in(Duration::from_millis(350.0 * static_cast<double>(a)),
                              [&app] { app.start(); });
      }
    });
  }
  bed.sim().run();
  result.obs = bed.sim().take_obs();
  return result;
}

// ===================================================================== H3

H3Campaign::Result H3Campaign::run(const Config& config) {
  TestbedConfig tb_config{config, AccessKind::kStarlink, config.fleet};
  if (config.epochs) apply_paper_epochs(tb_config.starlink);
  Testbed bed{tb_config};

  // The paper's second H3 session: run inside the post-April-25 epoch.
  const TimePoint session_start =
      config.epochs ? TimePoint::epoch() + Duration::days(140) : TimePoint::epoch();
  bed.sim().run_until(session_start);

  Result result;
  quic::QuicStack client_stack{bed.starlink().client()};
  quic::QuicStack server_stack{bed.campus_server()};

  quic::QuicConfig quic_config;
  quic_config.pacing = config.pacing;

  apps::H3Server::Config server_config;
  server_config.object_bytes = config.bytes;
  server_config.quic = quic_config;
  apps::H3Server server{server_stack, server_config};

  LossAnalyzer analyzer;
  std::vector<std::unique_ptr<apps::H3Client>> clients;

  // The data sender is the server for downloads (the paper captured at the
  // server for its download curves), the client for uploads.
  server.on_connection = [&](quic::QuicConnection& conn) {
    observe_end(conn, config.download, result.rtt_ms, analyzer);
  };

  SessionSeries series{bed.sim(), config.transfers, config.gap, config.transfer_timeout};
  result.transfers_completed = series.run([&](SessionSeries::Session s) {
    apps::H3Client::Config cc;
    cc.server = bed.campus_server().addr();
    cc.download = config.download;
    cc.bytes = config.bytes;
    cc.quic = quic_config;
    apps::H3Client& h3 = *clients.emplace_back(std::make_unique<apps::H3Client>(client_stack, cc));
    h3.start();
    observe_end(h3.connection(), !config.download, result.rtt_ms, analyzer);
    h3.on_complete = [&, s](const apps::H3Client::Result& r) {
      if (s.complete()) result.goodput_mbps.add(r.goodput.to_mbps());
    };
  });
  result.loss = analyzer.analyze();
  result.obs = bed.sim().take_obs();
  return result;
}

// ================================================================= messages

MessageCampaign::Result MessageCampaign::run(const Config& config) {
  Testbed bed{TestbedConfig{config, AccessKind::kStarlink, config.fleet}};

  Result result;
  quic::QuicStack client_stack{bed.starlink().client()};
  quic::QuicStack server_stack{bed.campus_server()};

  quic::QuicConfig quic_config;
  quic_config.pacing = config.pacing;

  LossAnalyzer analyzer;
  std::vector<std::unique_ptr<apps::MessageSender>> senders;
  std::vector<std::unique_ptr<apps::MessageReceiver>> receivers;

  const auto receive = [&](quic::QuicConnection& conn) {
    auto& receiver = *receivers.emplace_back(std::make_unique<apps::MessageReceiver>(conn));
    receiver.on_delivery = [&result](const apps::MessageReceiver::Delivery& d) {
      result.latency_ms.add(d.latency.to_millis());
    };
  };
  // For downloads the *server* drives the messages; its connection appears
  // via the listener. For uploads the client drives.
  quic::QuicConnection* server_conn = nullptr;
  server_stack.listen(443, [&](quic::QuicConnection& conn) {
    server_conn = &conn;
    observe_end(conn, !config.upload, result.rtt_ms, analyzer);
    if (config.upload) receive(conn);
  }, quic_config);

  SessionSeries series{bed.sim(), config.sessions, config.gap};
  series.run([&](SessionSeries::Session s) {
    quic::QuicConnection& conn = client_stack.connect(bed.campus_server().addr(), 443,
                                                      quic_config);
    observe_end(conn, config.upload, result.rtt_ms, analyzer);
    if (!config.upload) receive(conn);
    conn.on_established = [&, s] {
      apps::MessageSender::Config sender_config;
      sender_config.duration = config.session_duration;
      // Downloads: the sender runs on the server side of this connection.
      quic::QuicConnection& driving = config.upload ? conn : *server_conn;
      apps::MessageSender& sender = *senders.emplace_back(std::make_unique<apps::MessageSender>(
          driving, sender_config,
          bed.sim().fork_rng("msg-session-" + std::to_string(config.sessions - s.index))));
      sender.on_complete = [&, s] {
        if (s.complete()) result.messages_sent += sender.messages_sent();
      };
      sender.start();
    };
  });

  result.loss = analyzer.analyze();
  result.obs = bed.sim().take_obs();
  return result;
}

// ================================================================ speedtest

SpeedtestCampaign::Result SpeedtestCampaign::run(const Config& config) {
  TestbedConfig tb_config{config, config.access, config.fleet};
  tb_config.geo.pep.enabled = config.satcom_pep;
  Testbed bed{tb_config};

  Result result;
  tcp::TcpStack client_stack{bed.client(config.access)};
  tcp::TcpStack server_stack{bed.ookla_server()};
  apps::SpeedtestServer server{server_stack};

  std::vector<std::unique_ptr<apps::Speedtest>> tests;
  SessionSeries series{bed.sim(), config.tests, config.gap};
  series.run([&](SessionSeries::Session s) {
    apps::Speedtest::Config test_config;
    test_config.server = bed.ookla_server().addr();
    test_config.connections = config.connections;
    test_config.duration = config.test_duration;
    test_config.download = config.download;
    apps::Speedtest& test =
        *tests.emplace_back(std::make_unique<apps::Speedtest>(client_stack, test_config));
    test.on_complete = [&, s](const apps::Speedtest::Result& r) {
      if (s.complete()) result.mbps.add(r.goodput.to_mbps());
    };
    test.start();
  });
  result.obs = bed.sim().take_obs();
  return result;
}

// ====================================================================== web

WebCampaign::Result WebCampaign::run(const Config& config) {
  TestbedConfig tb_config{config, config.access, config.fleet};
  tb_config.geo.pep.enabled = config.satcom_pep;
  Testbed bed{tb_config};

  Result result;
  const web::SiteCatalog catalog =
      web::SiteCatalog::generate(config.catalog_sites, bed.sim().fork_rng("catalog"));

  tcp::TcpStack client_stack{bed.client(config.access)};
  tcp::TcpStack server_stack{bed.web_server_host(config.access)};
  web::WebServer::Config server_config;
  server_config.num_origins = catalog.max_origins();
  web::WebServer server{server_stack, server_config, bed.sim().fork_rng("webserver")};

  // DNS: register every origin hostname of the catalog at the resolver and
  // give the browser a stub resolver on the client.
  std::unique_ptr<web::DnsResolver> resolver;
  web::Browser::Config browser_config;
  browser_config.server_addr = bed.web_server_host(config.access).addr();
  browser_config.visit_timeout = config.visit_timeout;
  if (config.dns) {
    for (const web::WebPage& page : catalog.sites()) {
      for (int origin = 0; origin < page.num_origins; ++origin) {
        bed.dns().add_record(web::Browser::origin_hostname(page, origin),
                             bed.web_server_host(config.access).addr());
      }
    }
    web::DnsResolver::Config dns_config;
    dns_config.server = bed.resolver_host().addr();
    resolver = std::make_unique<web::DnsResolver>(bed.client(config.access), dns_config);
    browser_config.dns = resolver.get();
  }
  web::Browser browser{client_stack, server, browser_config};

  Rng site_rng = bed.sim().fork_rng("site-choice");
  double total_connections = 0.0;

  SessionSeries series{bed.sim(), config.visits, config.gap};
  result.visits_completed = series.run([&](SessionSeries::Session s) {
    const web::WebPage& page = catalog.site(site_rng.index(catalog.size()));
    server.clear_plans();
    browser.visit(page, [&, s](const web::Browser::VisitResult& r) {
      if (!r.complete) {
        s.abandon();
      } else if (s.complete()) {
        result.onload_s.add(r.on_load.to_seconds());
        result.speedindex_s.add(r.speed_index.to_seconds());
        result.setup_ms.add(r.mean_connection_setup.to_millis());
        total_connections += r.connections_opened;
      }
    });
  });
  result.visits_timed_out = series.abandoned();
  if (result.visits_completed > 0) {
    result.mean_connections = total_connections / result.visits_completed;
  }
  result.obs = bed.sim().take_obs();
  return result;
}

// ================================================================ road trip

RoadTripCampaign::Result RoadTripCampaign::run(const Config& config) {
  const std::optional<mobility::Route> route = mobility::routes::lookup(config.route);
  if (!route.has_value()) {
    throw std::invalid_argument("road trip: unknown route '" + config.route + "'");
  }

  TestbedConfig tb_config{config, AccessKind::kStarlink, config.fleet};
  tb_config.mobility.route = *route;
  tb_config.mobility.speed_scale = config.speed_scale;
  tb_config.mobility.obstructions = config.obstructions;
  Testbed bed{tb_config};

  Result result;
  // RTT edges: moving-terminal RTTs live between the static ~40 ms median
  // and multi-hundred-ms reacquisition spikes.
  result.rtt_by_speed =
      stats::KeyedSamples{{25, 50, 75, 100, 150, 200, 300, 500, 1000}};
  result.route_km = route->trajectory.total_distance_m() / 1000.0;

  Duration drive = config.duration;
  if (drive <= Duration::zero()) {
    drive = config.speed_scale > 0.0
                ? route->trajectory.total_duration() * (1.0 / config.speed_scale) +
                      Duration::seconds(30)
                : Duration::minutes(5);
  }
  const auto rounds = static_cast<std::int64_t>(drive / config.cadence);

  // Per-round probe outcome: -1 unanswered (run ended first), 0 ok, 1 lost.
  // Consecutive 1s fold into outage durations after the run.
  std::vector<signed char> outcomes(static_cast<std::size_t>(rounds), -1);

  sim::Host& client = bed.starlink().client();
  const sim::Ipv4Addr target = bed.anchor(0).host->addr();  // brussels-be
  PingPool pings;

  for (std::int64_t round = 0; round < rounds; ++round) {
    const TimePoint at = TimePoint::epoch() + config.cadence * static_cast<double>(round);
    bed.sim().schedule_at(at, [&, at, round] {
      apps::PingApp::Config ping_cfg;
      ping_cfg.target = target;
      ping_cfg.count = 1;
      ping_cfg.flow = 1;
      pings.add(client, ping_cfg, [&, at, round](const auto& probes) {
        // Bin by the vehicle's speed at probe launch (0 while parked or
        // before departure), 20 km/h per bin.
        const mobility::Trajectory::State st = bed.mobility()->state_at(at);
        const auto key = static_cast<std::uint64_t>(st.speed_mps * 3.6 / 20.0);
        for (const auto& probe : probes) {
          result.probes_sent++;
          result.loss_by_speed.add(key, probe.lost ? 1.0 : 0.0);
          outcomes[static_cast<std::size_t>(round)] = probe.lost ? 1 : 0;
          if (probe.lost) {
            result.probes_lost++;
            continue;
          }
          result.rtt_by_speed.add(key, probe.rtt.to_millis());
          for (int c = 0; c < obs::kTagComponents; ++c) {
            result.comp_ns[static_cast<std::size_t>(c)] += probe.comp_ns[c];
          }
        }
      }).start();
    });
  }
  bed.sim().run();

  int streak = 0;
  for (std::int64_t round = 0; round <= rounds; ++round) {
    const bool lost = round < rounds && outcomes[static_cast<std::size_t>(round)] == 1;
    if (lost) {
      streak++;
    } else if (streak > 0) {
      result.outage_s.add(streak * config.cadence.to_seconds());
      streak = 0;
    }
  }

  const mobility::MobileTerminal::Stats& ms = bed.mobility()->stats();
  result.reroutes = ms.reroutes;
  result.cell_migrations = ms.cell_migrations;
  result.tunnels = ms.tunnels;
  result.obs = bed.sim().take_obs();
  return result;
}

// ============================================================ sweep support

void merge(PingCampaign::Result& into, const PingCampaign::Result& from) {
  assert(into.anchors.size() == from.anchors.size());
  for (std::size_t i = 0; i < into.anchors.size(); ++i) {
    into.anchors[i].rtt_ms.merge(from.anchors[i].rtt_ms);
  }
  into.eu_timeline.merge(from.eu_timeline);
  if (into.eu_components.size() < from.eu_components.size()) {
    into.eu_components.resize(from.eu_components.size(),
                              stats::TimeBinner{Duration::hours(6)});
  }
  for (std::size_t c = 0; c < from.eu_components.size(); ++c) {
    into.eu_components[c].merge(from.eu_components[c]);
  }
  for (std::size_t h = 0; h < into.eu_by_hour.size(); ++h) {
    into.eu_by_hour[h].insert(into.eu_by_hour[h].end(), from.eu_by_hour[h].begin(),
                              from.eu_by_hour[h].end());
  }
  into.pings_sent += from.pings_sent;
  into.pings_lost += from.pings_lost;
  obs::merge(into.obs, from.obs);
}

void merge(H3Campaign::Result& into, const H3Campaign::Result& from) {
  into.rtt_ms.merge(from.rtt_ms);
  into.goodput_mbps.merge(from.goodput_mbps);
  into.loss = LossAnalyzer::combine({into.loss, from.loss});
  into.transfers_completed += from.transfers_completed;
  obs::merge(into.obs, from.obs);
}

void merge(MessageCampaign::Result& into, const MessageCampaign::Result& from) {
  into.rtt_ms.merge(from.rtt_ms);
  into.latency_ms.merge(from.latency_ms);
  into.loss = LossAnalyzer::combine({into.loss, from.loss});
  into.messages_sent += from.messages_sent;
  obs::merge(into.obs, from.obs);
}

void merge(SpeedtestCampaign::Result& into, const SpeedtestCampaign::Result& from) {
  into.mbps.merge(from.mbps);
  obs::merge(into.obs, from.obs);
}

void merge(RoadTripCampaign::Result& into, const RoadTripCampaign::Result& from) {
  into.rtt_by_speed.merge(from.rtt_by_speed);
  into.loss_by_speed.merge(from.loss_by_speed);
  into.outage_s.merge(from.outage_s);
  for (std::size_t c = 0; c < into.comp_ns.size(); ++c) into.comp_ns[c] += from.comp_ns[c];
  into.probes_sent += from.probes_sent;
  into.probes_lost += from.probes_lost;
  into.reroutes += from.reroutes;
  into.cell_migrations += from.cell_migrations;
  into.tunnels += from.tunnels;
  into.route_km = std::max(into.route_km, from.route_km);
  obs::merge(into.obs, from.obs);
}

void merge(WebCampaign::Result& into, const WebCampaign::Result& from) {
  into.onload_s.merge(from.onload_s);
  into.speedindex_s.merge(from.speedindex_s);
  into.setup_ms.merge(from.setup_ms);
  const int total = into.visits_completed + from.visits_completed;
  if (total > 0) {
    into.mean_connections = (into.mean_connections * into.visits_completed +
                             from.mean_connections * from.visits_completed) /
                            total;
  }
  into.visits_completed = total;
  into.visits_timed_out += from.visits_timed_out;
  obs::merge(into.obs, from.obs);
}

// =============================================================== middleboxes

MiddleboxAudit::Result MiddleboxAudit::run(const Config& config) {
  Testbed bed{TestbedConfig{config, config.access}};

  Result result;
  sim::Host& client = bed.client(config.access);

  // The campus server answers TCP on port 80 for Tracebox and hosts Wehe.
  tcp::TcpStack server_stack{bed.campus_server()};
  server_stack.listen(80, [](tcp::TcpConnection&) {});
  mbox::WeheServer wehe_server{bed.campus_server()};

  // Phase 1: traceroute.
  mbox::Traceroute::Config tr_config;
  tr_config.target = bed.campus_server().addr();
  mbox::Traceroute traceroute{client, tr_config};
  traceroute.on_complete = [&](const std::vector<mbox::Traceroute::Hop>& hops) {
    result.traceroute = hops;
  };
  traceroute.start();
  bed.run_for(Duration::minutes(2));

  // Phase 2: Tracebox.
  mbox::Tracebox::Config tb_cfg;
  tb_cfg.target = bed.campus_server().addr();
  mbox::Tracebox tracebox{client, tb_cfg};
  tracebox.on_complete = [&](const mbox::Tracebox::Report& r) { result.tracebox = r; };
  tracebox.start();
  bed.run_for(Duration::minutes(3));

  // Phase 3: Wehe.
  mbox::WeheClient::Config wehe_config;
  wehe_config.server = bed.campus_server().addr();
  wehe_config.repetitions = config.wehe_repetitions;
  mbox::WeheClient wehe{client, wehe_config};
  wehe.on_complete = [&](const mbox::WeheClient::Report& r) { result.wehe = r; };
  wehe.start();
  bed.sim().run();

  result.obs = bed.sim().take_obs();
  return result;
}

}  // namespace slp::measure
