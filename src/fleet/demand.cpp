#include "fleet/demand.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

namespace slp::fleet {

namespace {

// Sub-stream labels keep the class draw, the activity draw and the rate
// jitter independent of one another.
constexpr std::uint64_t kClassStream = 0x11ull;
constexpr std::uint64_t kActiveStream = 0x22ull;
constexpr std::uint64_t kRateStream = 0x33ull;

DemandModel::Demand class_mix_mean(const DemandModel::Config& c) {
  const DemandModel::ClassProfile* profiles[] = {&c.bulk,  &c.speedtest, &c.web, &c.video,
                                                 &c.vc,    &c.game,      &c.idle};
  double total = 0.0;
  double down = 0.0;
  double up = 0.0;
  for (const DemandModel::ClassProfile* p : profiles) {
    total += p->fraction;
    down += p->fraction * p->duty * p->down.bits_per_second();
    up += p->fraction * p->duty * p->up.bits_per_second();
  }
  if (total <= 0.0) return {};
  return {DataRate::bps(down / total * c.scale_down), DataRate::bps(up / total * c.scale_up)};
}

}  // namespace

DemandModel::DemandModel(Config config) : config_{config}, expected_{class_mix_mean(config_)} {}

std::string_view to_string(DemandClass c) {
  switch (c) {
    case DemandClass::kBulk: return "bulk";
    case DemandClass::kSpeedtest: return "speedtest";
    case DemandClass::kWeb: return "web";
    case DemandClass::kVideo: return "video";
    case DemandClass::kVc: return "vc";
    case DemandClass::kGame: return "game";
    case DemandClass::kIdle: return "idle";
  }
  return "?";
}

const DemandModel::ClassProfile& DemandModel::profile(DemandClass c) const {
  switch (c) {
    case DemandClass::kBulk: return config_.bulk;
    case DemandClass::kSpeedtest: return config_.speedtest;
    case DemandClass::kWeb: return config_.web;
    case DemandClass::kVideo: return config_.video;
    case DemandClass::kVc: return config_.vc;
    case DemandClass::kGame: return config_.game;
    case DemandClass::kIdle: return config_.idle;
  }
  return config_.idle;
}

DemandClass DemandModel::class_of(std::uint64_t terminal_seed) const {
  const double total = config_.bulk.fraction + config_.speedtest.fraction +
                       config_.web.fraction + config_.video.fraction + config_.vc.fraction +
                       config_.game.fraction + config_.idle.fraction;
  double pick = mix_uniform(terminal_seed, kClassStream) * std::max(1e-12, total);
  // The QoE classes draw after web with fraction 0 by default: subtracting
  // zero never flips the comparison, so the stock mix assigns every terminal
  // exactly the class it had before these classes existed.
  if ((pick -= config_.bulk.fraction) <= 0.0) return DemandClass::kBulk;
  if ((pick -= config_.speedtest.fraction) <= 0.0) return DemandClass::kSpeedtest;
  if ((pick -= config_.web.fraction) <= 0.0) return DemandClass::kWeb;
  if ((pick -= config_.video.fraction) <= 0.0) return DemandClass::kVideo;
  if ((pick -= config_.vc.fraction) <= 0.0) return DemandClass::kVc;
  if ((pick -= config_.game.fraction) <= 0.0) return DemandClass::kGame;
  return DemandClass::kIdle;
}

DemandModel::Demand DemandModel::at(std::uint64_t terminal_seed, TimePoint t) const {
  return session_at(terminal_seed, class_of(terminal_seed), t).demand;
}

DemandModel::Session DemandModel::session_at(std::uint64_t terminal_seed, DemandClass c,
                                             TimePoint t) const {
  const ClassProfile& p = profile(c);
  const auto session =
      static_cast<std::uint64_t>(std::max<std::int64_t>(0, t.ns()) / p.session.ns());
  // Only the diurnal factor varies inside a window; with it on, the demand
  // is valid for this instant alone.
  const TimePoint until =
      config_.diurnal_amplitude > 0.0
          ? t
          : TimePoint::from_ns(static_cast<std::int64_t>(session + 1) * p.session.ns());

  const double duty = p.duty * diurnal_factor(t);
  if (mix_uniform(terminal_seed ^ kActiveStream, session) >= duty) return {{}, until};

  // Per-session rate jitter in [0.5, 1.5): sessions differ, but the rate is
  // constant within a session so allocations move on session boundaries.
  const double jitter = 0.5 + mix_uniform(terminal_seed ^ kRateStream, session);
  return {{p.down * (jitter * config_.scale_down), p.up * (jitter * config_.scale_up)}, until};
}

double DemandModel::diurnal_factor(TimePoint t) const {
  if (config_.diurnal_amplitude <= 0.0) return 1.0;
  const double phase =
      2.0 * std::numbers::pi * t.to_seconds() / config_.diurnal_period.to_seconds();
  return std::clamp(1.0 + config_.diurnal_amplitude * std::sin(phase), 0.0, 2.0);
}

DemandModel::Demand DemandModel::expected_at(TimePoint t) const {
  const double f = diurnal_factor(t);
  const Demand e = expected();
  return {e.down * f, e.up * f};
}

namespace {

// The named mixes' class shares: {bulk, speedtest, web, video, vc, game, idle}.
// "default" keeps DemandModel::Config's own shares.
struct NamedMix {
  std::string_view name;
  double shares[7];
};
constexpr NamedMix kNamedMixes[] = {
    // Evening peak: a third of the fleet watching ABR video, web and idle
    // trimmed to make room. Bulk/speedtest untouched so the heavy-hitter
    // tail that shapes Figure 5 survives.
    {"streaming", {0.10, 0.05, 0.30, 0.30, 0.00, 0.00, 0.25}},
    // Call/game heavy: latency-sensitive sessions dominate, speedtests and
    // bulk pull back. This is the mix fig8 uses to stress jitter buffers.
    {"realtime", {0.05, 0.05, 0.25, 0.00, 0.20, 0.25, 0.25}},
    // All six application classes active in plausible shares.
    {"mixed", {0.08, 0.02, 0.30, 0.20, 0.10, 0.10, 0.20}},
    // Reweightings of the stock bulk/speedtest/web/idle classes.
    {"web-heavy", {0.05, 0.03, 0.70, 0.00, 0.00, 0.00, 0.22}},
    {"bulk-heavy", {0.30, 0.05, 0.30, 0.00, 0.00, 0.00, 0.35}},
    {"idle", {0.02, 0.01, 0.17, 0.00, 0.00, 0.00, 0.80}},
};

}  // namespace

DemandModel::Config named_mix(std::string_view name) {
  DemandModel::Config c;  // the stock bulk/speedtest/web/idle mix
  if (name == "default") return c;
  for (const NamedMix& mix : kNamedMixes) {
    if (mix.name != name) continue;
    DemandModel::ClassProfile* profiles[] = {&c.bulk, &c.speedtest, &c.web, &c.video,
                                             &c.vc,   &c.game,      &c.idle};
    for (int i = 0; i < 7; ++i) profiles[i]->fraction = mix.shares[i];
    return c;
  }
  throw std::invalid_argument("unknown fleet mix: " + std::string(name));
}

std::vector<std::string_view> mix_names() {
  std::vector<std::string_view> names{"default"};
  for (const NamedMix& mix : kNamedMixes) names.push_back(mix.name);
  return names;
}

}  // namespace slp::fleet
