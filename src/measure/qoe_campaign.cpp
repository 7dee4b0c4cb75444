#include "measure/qoe_campaign.hpp"

#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "measure/session_series.hpp"
#include "sim/provenance.hpp"

namespace slp::measure {

std::uint64_t handover_slot_phase(TimePoint t) {
  const std::int64_t slot_ns = Duration::seconds(15).ns();
  std::int64_t ns = t.ns() % slot_ns;
  if (ns < 0) ns += slot_ns;
  return static_cast<std::uint64_t>(ns / Duration::seconds(1).ns());
}

// ============================================== ABR video, videoconferencing

namespace {

/// Runs ABR or videoconferencing QUIC sessions from the Starlink client to
/// the campus server as a session series; `fold` takes each completed
/// session's metrics. Returns the completed count and the cell's snapshot.
template <typename Session, typename Config, typename Fold>
std::pair<int, obs::Snapshot> run_quic_series(const Config& config, int sessions, Fold fold) {
  Testbed bed{TestbedConfig{config, AccessKind::kStarlink, config.fleet}};
  quic::QuicStack client_stack{bed.starlink().client()};
  quic::QuicStack server_stack{bed.campus_server()};
  const quic::QuicConfig quic_config;

  // Sessions run one at a time, so the listener always hands the accepted
  // connection to the session launched last (see AbrVideoSession's wiring
  // contract: accept precedes the client handshake completing).
  std::vector<std::unique_ptr<Session>> live;
  Session* pending = nullptr;
  server_stack.listen(443, [&](quic::QuicConnection& conn) {
    if (pending != nullptr) pending->attach_server(conn);
  }, quic_config);

  SessionSeries series{bed.sim(), sessions, config.gap};
  const int completed = series.run([&](SessionSeries::Session s) {
    quic::QuicConnection& conn =
        client_stack.connect(bed.campus_server().addr(), 443, quic_config);
    pending = live.emplace_back(std::make_unique<Session>(conn, config.session)).get();
    pending->on_complete = [&fold, s](const typename Session::Metrics& m) {
      if (s.complete()) fold(m);
    };
    pending->start();
  });
  return {completed, bed.sim().take_obs()};
}

}  // namespace

AbrCampaign::Result AbrCampaign::run(const Config& config) {
  Result result;
  std::tie(result.sessions_completed, result.obs) = run_quic_series<qoe::AbrVideoSession>(
      config, config.sessions, [&result](const qoe::AbrVideoSession::Metrics& m) {
        result.startup_s.add(m.startup_delay.to_seconds());
        result.rebuffer_ratio.add(m.rebuffer_ratio());
        if (m.segments_downloaded > 0) result.mean_rung_mbps.add(m.mean_rung_mbps);
        for (double mbps : m.segment_mbps) result.segment_mbps.add(mbps);
        for (TimePoint at : m.rebuffer_at) {
          result.rebuffer_by_phase.add(handover_slot_phase(at), 1.0);
        }
        result.rebuffer_events += static_cast<std::uint64_t>(m.rebuffer_events);
        result.quality_switches += static_cast<std::uint64_t>(m.quality_switches);
        result.segments += static_cast<std::uint64_t>(m.segments_downloaded);
      });
  return result;
}

VcCampaign::Result VcCampaign::run(const Config& config) {
  Result result;
  const auto fold_dir = [&result](const qoe::VcSession::DirMetrics& dir) {
    for (const qoe::VcSession::Window& win : dir.windows) {
      result.mos.add(win.mos);
      result.window_loss_pct.add(win.loss_pct);
      result.mos_by_phase.add(handover_slot_phase(win.mid), win.mos);
    }
    for (double ms : dir.transit_ms) result.transit_ms.add(ms);
    result.frames_sent += dir.frames_sent;
    result.frames_missed += dir.frames_missed;
    result.datagrams_lost += dir.datagrams_lost;
  };
  std::tie(result.calls_completed, result.obs) = run_quic_series<qoe::VcSession>(
      config, config.calls, [&fold_dir](const qoe::VcSession::Metrics& m) {
        fold_dir(m.up);
        fold_dir(m.down);
      });
  return result;
}

// ============================================================= game traffic

GameCampaign::Result GameCampaign::run(const Config& config) {
  Testbed bed{TestbedConfig{config, AccessKind::kStarlink, config.fleet}};

  Result result;
  std::vector<std::unique_ptr<qoe::GameSession>> matches;

  SessionSeries series{bed.sim(), config.matches, config.gap};
  result.matches_completed = series.run([&](SessionSeries::Session s) {
    // Distinct server port per match: earlier sessions stay alive (their
    // metrics belong to them) and a port stays bound for its session's life.
    qoe::GameSession::Config session_config = config.session;
    session_config.server_port = static_cast<std::uint16_t>(session_config.server_port + s.index);
    qoe::GameSession& match = *matches.emplace_back(std::make_unique<qoe::GameSession>(
        bed.starlink().client(), bed.campus_server(), session_config));
    match.on_complete = [&, s](const qoe::GameSession::Metrics& m) {
      if (!s.complete()) return;
      for (const qoe::GameSession::Tick& t : m.ticks) {
        result.ticks_sent++;
        const double stall_ms = static_cast<double>(t.handover_stall_ns) * 1e-6;
        if (t.lost) {
          result.ticks_lost++;
        } else {
          result.rtt_ms.add(t.rtt_ms);
          result.stall_ms.add(stall_ms);
          if (stall_ms >= kStallHighMs) {
            result.ticks_high_stall++;
            if (t.spike) result.spikes_high_stall++;
          } else if (stall_ms <= kStallLowMs) {
            result.ticks_low_stall++;
            if (t.spike) result.spikes_low_stall++;
          }
        }
        if (t.spike) {
          result.spikes++;
          result.spikes_by_phase.add(handover_slot_phase(t.sent_at), 1.0);
          if (t.handover_stall_ns > 0) {
            result.spikes_with_stall++;
            result.spike_stall_ms.add(stall_ms);
          }
        }
      }
    };
    match.start();
  });
  result.obs = bed.sim().take_obs();
  return result;
}

// ============================================================ sweep support

void merge(AbrCampaign::Result& into, const AbrCampaign::Result& from) {
  into.startup_s.merge(from.startup_s);
  into.rebuffer_ratio.merge(from.rebuffer_ratio);
  into.mean_rung_mbps.merge(from.mean_rung_mbps);
  into.segment_mbps.merge(from.segment_mbps);
  into.rebuffer_by_phase.merge(from.rebuffer_by_phase);
  into.rebuffer_events += from.rebuffer_events;
  into.quality_switches += from.quality_switches;
  into.segments += from.segments;
  into.sessions_completed += from.sessions_completed;
  obs::merge(into.obs, from.obs);
}

void merge(VcCampaign::Result& into, const VcCampaign::Result& from) {
  into.mos.merge(from.mos);
  into.window_loss_pct.merge(from.window_loss_pct);
  into.transit_ms.merge(from.transit_ms);
  into.mos_by_phase.merge(from.mos_by_phase);
  into.frames_sent += from.frames_sent;
  into.frames_missed += from.frames_missed;
  into.datagrams_lost += from.datagrams_lost;
  into.calls_completed += from.calls_completed;
  obs::merge(into.obs, from.obs);
}

void merge(GameCampaign::Result& into, const GameCampaign::Result& from) {
  into.rtt_ms.merge(from.rtt_ms);
  into.spikes_by_phase.merge(from.spikes_by_phase);
  into.spike_stall_ms.merge(from.spike_stall_ms);
  into.stall_ms.merge(from.stall_ms);
  into.ticks_high_stall += from.ticks_high_stall;
  into.ticks_low_stall += from.ticks_low_stall;
  into.spikes_high_stall += from.spikes_high_stall;
  into.spikes_low_stall += from.spikes_low_stall;
  into.ticks_sent += from.ticks_sent;
  into.ticks_lost += from.ticks_lost;
  into.spikes += from.spikes;
  into.spikes_with_stall += from.spikes_with_stall;
  into.matches_completed += from.matches_completed;
  obs::merge(into.obs, from.obs);
}

}  // namespace slp::measure
