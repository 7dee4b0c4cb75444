// driver.cpp — one batch of a perfbench workload.
//
// A batch is a closed set of campaign cells, run to completion in one
// process. It goes through three timed phases, each a call into the public
// API from this file:
//
//   run     every Campaign::run cell of the workload is submitted to one
//           runner::Pool, so cells of different campaigns share the workers;
//   merge   each campaign folds its cells in cell-id order with its merge(),
//           then the folded obs::Snapshots are merged into one;
//   export  obs::metrics_json of that snapshot, hashed with the result
//           summaries into the batch digest.
//
// Then every cell's outputs are checked (all tests, transfers, visits and
// sessions complete; per link, enqueued >= delivered + drops).
//
// Set-up is measured in a process of its own (--via=setup), so that a
// batch's wall time holds only what a campaign run pays: every cell's
// universe is built through its public constructor (measure::Testbed, or
// fleet::Fleet for the fleet workload) and torn down again, repeatedly, and
// nothing is run.
//
// Either way the process prints one JSON document on stdout;
// perfbench/run.py repeats processes and turns them into the benchmark's
// metrics.
//
// Flags (--key=value):
//   --workload=NAME     bulk_transfer | ping_timeline | interactive_apps |
//                       continental_fleet
//   --seed=N            workload seed; every campaign seed derives from it
//   --workers=W         runner::Pool width (default 2)
//   --shards=K          fleet arbiter shards (default 1)
//   --trace=0|1         1 = obs profiling on, the program's "wall-profile"
//                       lines captured per cell, fleet placement timed, and
//                       the spans written to --spans
//   --spans=PATH        JSONL file the process appends its spans to
//   --via=pool|run_merged|setup
//                       run_merged drives each campaign through
//                       runner::run_merged instead of the timed pool: no
//                       per-cell timing, but its digest must equal the
//                       pool's (same cell seeds, same fold order). setup
//                       only builds the cells' universes (above).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <streambuf>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "fleet/campaign.hpp"
#include "fleet/fleet.hpp"
#include "measure/campaign.hpp"
#include "measure/qoe_campaign.hpp"
#include "mobility/routes.hpp"
#include "obs/json.hpp"
#include "obs/recorder.hpp"
#include "runner/pool.hpp"
#include "runner/sweep.hpp"
#include "scenario/scenario.hpp"
#include "sim/network.hpp"
#include "util/flags.hpp"

namespace {

using namespace slp;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------------ spans

/// One timed call into a layer. Spans of one cell share its id; batch-wide
/// spans carry cell -1.
struct Span {
  std::string name;
  std::string parent;
  int cell = -1;
  double start_s = 0.0;  ///< seconds since the batch started
  double end_s = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_{origin} {}

  void add(std::string name, std::string parent, int cell, Clock::time_point start,
           Clock::time_point end) {
    const std::lock_guard<std::mutex> lock{mutex_};
    spans_.push_back(Span{std::move(name), std::move(parent), cell,
                          seconds_between(origin_, start), seconds_between(origin_, end)});
  }

  void write_jsonl(const std::string& path) const {
    std::ofstream out{path, std::ios::app};
    for (const Span& s : spans_) {
      out << "{\"name\":" << obs::json_quote(s.name) << ",\"parent\":" << obs::json_quote(s.parent)
          << ",\"cell\":" << s.cell << ",\"start_s\":" << obs::json_number_exact(s.start_s)
          << ",\"end_s\":" << obs::json_number_exact(s.end_s) << "}\n";
    }
  }

 private:
  Clock::time_point origin_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

// ------------------------------------------------- wall-profile line capture

/// The program reports a cell's obs::WallProfile as "wall-profile ..." lines
/// on std::cerr when the cell ends. Cells end concurrently, so this buffer
/// collects whole lines per thread and tags each with the cell that thread
/// was running. Installed on std::cerr for traced batches only.
thread_local int t_cell = -1;

class LineCapture final : public std::streambuf {
 public:
  struct Line {
    int cell;
    std::string text;
  };

  std::vector<Line> take() {
    const std::lock_guard<std::mutex> lock{mutex_};
    return std::move(lines_);
  }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) put(traits_type::to_char_type(ch));
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

 private:
  void put(char c) {
    thread_local std::string pending;
    if (c != '\n') {
      pending.push_back(c);
      return;
    }
    const std::lock_guard<std::mutex> lock{mutex_};
    lines_.push_back(Line{t_cell, std::move(pending)});
    pending.clear();
  }

  std::mutex mutex_;
  std::vector<Line> lines_;
};

// --------------------------------------------------- per-campaign adapters
//
// Each campaign type gets: the TestbedConfig its run() assembles (so set-up
// can be timed through the same public constructor), its simulated span,
// its completion check, a deterministic result summary for the digest, and
// the per-layer work counts it contributes.

using measure::AccessKind;
using measure::TestbedConfig;
using Work = std::map<std::string, double>;

TestbedConfig starlink_testbed(std::uint64_t seed, const obs::Options& obs,
                               const std::shared_ptr<const scenario::Scenario>& scenario,
                               const fleet::Fleet::Config& fleet, bool fast_forward) {
  TestbedConfig tb;
  tb.seed = seed;
  tb.with_satcom = false;
  tb.obs = obs;
  tb.scenario = scenario;
  tb.fleet = fleet;
  tb.fast_forward = fast_forward;
  return tb;
}

template <typename Config>
TestbedConfig access_testbed(const Config& c) {
  TestbedConfig tb = starlink_testbed(c.seed, c.obs, c.scenario, {}, c.fast_forward);
  tb.with_satcom = c.access == AccessKind::kSatCom;
  tb.geo.pep.enabled = c.satcom_pep;
  if (c.access == AccessKind::kStarlink) tb.fleet = c.fleet;
  return tb;
}

template <typename Config>
TestbedConfig epoch_testbed(const Config& c) {
  TestbedConfig tb = starlink_testbed(c.seed, c.obs, c.scenario, c.fleet, c.fast_forward);
  if (c.epochs) measure::apply_paper_epochs(tb.starlink);
  return tb;
}

TestbedConfig testbed_config(const measure::PingCampaign::Config& c) { return epoch_testbed(c); }
TestbedConfig testbed_config(const measure::H3Campaign::Config& c) { return epoch_testbed(c); }
TestbedConfig testbed_config(const measure::SpeedtestCampaign::Config& c) {
  return access_testbed(c);
}
TestbedConfig testbed_config(const measure::WebCampaign::Config& c) { return access_testbed(c); }
template <typename Config>
TestbedConfig testbed_config(const Config& c) {  // the QoE campaigns
  return starlink_testbed(c.seed, c.obs, c.scenario, c.fleet, c.fast_forward);
}

template <typename Config>
double build_seconds(const Config& c) {
  const TestbedConfig tb = testbed_config(c);
  const auto t0 = Clock::now();
  const auto bed = std::make_unique<measure::Testbed>(tb);
  return seconds_between(t0, Clock::now());
}

double build_seconds(const fleet::FleetCampaign::Config& c) {
  sim::Simulator sim{c.seed};
  sim.set_fast_forward(c.fast_forward);
  if (c.obs.any()) sim.enable_obs(c.obs);
  sim::Network net{sim};
  leo::StarlinkAccess access{net, c.starlink};
  const auto t0 = Clock::now();
  const auto built = std::make_unique<fleet::Fleet>(sim, access, c.fleet);
  return seconds_between(t0, Clock::now());
}

double placement_seconds(const fleet::FleetCampaign::Config& c) {
  const sim::Simulator sim{c.seed};
  fleet::Placement::Config p = c.fleet.placement;
  p.terminals = std::max(0, c.fleet.size - 1);
  const auto t0 = Clock::now();
  const auto placement =
      fleet::Placement::generate(p, sim.fork_rng(c.fleet.rng_label + "/placement"));
  return seconds_between(t0, Clock::now());
}

std::string expect(const char* what, std::uint64_t got, std::uint64_t want) {
  if (got == want) return {};
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: %" PRIu64 " of %" PRIu64, what, got, want);
  return buf;
}

std::uint64_t times(int per_cell, int cells) {
  return static_cast<std::uint64_t>(per_cell) * static_cast<std::uint64_t>(cells);
}

std::string stat(const char* key, const stats::Samples& s) {
  char buf[200];
  if (s.empty()) {
    std::snprintf(buf, sizeof(buf), " %s{n=0}", key);
  } else {
    std::snprintf(buf, sizeof(buf), " %s{n=%zu mean=%.17g p50=%.17g max=%.17g}", key, s.size(),
                  s.mean(), s.median(), s.max());
  }
  return buf;
}

std::string count(const char* key, double v) {
  char buf[120];
  std::snprintf(buf, sizeof(buf), " %s=%.17g", key, v);
  return buf;
}

// Pings: 3 pings to each anchor per round; lost pings are measurements.
double sim_seconds(const measure::PingCampaign::Config& c, const measure::PingCampaign::Result&) {
  return c.duration.to_seconds();
}
std::string check(const measure::PingCampaign::Config& c, const measure::PingCampaign::Result& r,
                  int cells) {
  const auto rounds = static_cast<std::uint64_t>(c.duration / c.cadence);
  return expect("pings sent", r.pings_sent,
                rounds * r.anchors.size() * times(c.pings_per_round, cells));
}
std::string summary(const measure::PingCampaign::Result& r) {
  std::string out = count("sent", static_cast<double>(r.pings_sent)) +
                    count("lost", static_cast<double>(r.pings_lost));
  for (const auto& a : r.anchors) out += stat(a.name.c_str(), a.rtt_ms);
  return out;
}
void add_work(Work&, const measure::PingCampaign::Result&) {}

// Ookla-style speedtests: one goodput sample per finished test.
double sim_seconds(const measure::SpeedtestCampaign::Config& c,
                   const measure::SpeedtestCampaign::Result&) {
  return c.tests * (c.test_duration + c.gap).to_seconds();
}
std::string check(const measure::SpeedtestCampaign::Config& c,
                  const measure::SpeedtestCampaign::Result& r, int cells) {
  return expect("speedtests complete", r.mbps.size(), times(c.tests, cells));
}
std::string summary(const measure::SpeedtestCampaign::Result& r) { return stat("mbps", r.mbps); }
void add_work(Work&, const measure::SpeedtestCampaign::Result&) {}

// Single-connection H3 transfers. A transfer ends completed, or abandoned by
// the campaign's own watchdog after transfer_timeout: about one connection in
// a hundred stalls for good, in either direction, and the watchdog exists for
// it. Abandoned transfers are an outcome (quic.h3_abandoned), like page-load
// timeouts; a completion without its goodput sample is the failure. A
// transfer's simulated time depends on its outcome, so the span is the
// config's budget instead: each transfer's watchdog timeout plus its gap.
// Slower or stalled transfers cannot raise it.
std::uint64_t abandoned(const measure::H3Campaign::Config& c, const measure::H3Campaign::Result& r,
                        int cells) {
  return times(c.transfers, cells) - static_cast<std::uint64_t>(r.transfers_completed);
}
double sim_seconds(const measure::H3Campaign::Config& c, const measure::H3Campaign::Result&) {
  return c.transfers * (c.transfer_timeout + c.gap).to_seconds();
}
std::string check(const measure::H3Campaign::Config& c, const measure::H3Campaign::Result& r,
                  int cells) {
  if (static_cast<std::uint64_t>(r.transfers_completed) > times(c.transfers, cells)) {
    return expect("H3 transfers at most launched", static_cast<std::uint64_t>(r.transfers_completed),
                  times(c.transfers, cells));
  }
  return expect("H3 goodput samples", r.goodput_mbps.size(),
                static_cast<std::uint64_t>(r.transfers_completed));
}
std::string summary(const measure::H3Campaign::Result& r) {
  return stat("goodput", r.goodput_mbps) + stat("rtt", r.rtt_ms) +
         count("lost", static_cast<double>(r.loss.packets_lost)) +
         count("completed", r.transfers_completed);
}
void add_work(Work&, const measure::H3Campaign::Result&) {}  // abandoned() needs the config

// Page loads: as for H3, the span is the config's budget, each visit's
// timeout plus its gap, so slower page loads cannot raise it.
double sim_seconds(const measure::WebCampaign::Config& c, const measure::WebCampaign::Result&) {
  return c.visits * (c.visit_timeout + c.gap).to_seconds();
}
// A visit ends loaded or at the browser's own timeout; both are outcomes
// (timeouts are reported as web.visits_timed_out). A visit that never ends
// is the failure.
std::string check(const measure::WebCampaign::Config& c, const measure::WebCampaign::Result& r,
                  int cells) {
  return expect("page visits ended",
                static_cast<std::uint64_t>(r.visits_completed + r.visits_timed_out),
                times(c.visits, cells));
}
std::string summary(const measure::WebCampaign::Result& r) {
  return stat("onload", r.onload_s) + stat("speedindex", r.speedindex_s) +
         stat("setup", r.setup_ms) + count("timeouts", r.visits_timed_out);
}
void add_work(Work& w, const measure::WebCampaign::Result& r) {
  w["web.visits"] += r.visits_completed;
  w["web.visits_timed_out"] += r.visits_timed_out;
}

// Game matches.
double sim_seconds(const measure::GameCampaign::Config& c, const measure::GameCampaign::Result&) {
  return c.matches * (c.session.duration + c.gap).to_seconds();
}
std::string check(const measure::GameCampaign::Config& c, const measure::GameCampaign::Result& r,
                  int cells) {
  return expect("matches complete", static_cast<std::uint64_t>(r.matches_completed),
                times(c.matches, cells));
}
std::string summary(const measure::GameCampaign::Result& r) {
  return stat("rtt", r.rtt_ms) + count("lost", static_cast<double>(r.ticks_lost)) +
         count("spikes", static_cast<double>(r.spikes));
}
void add_work(Work& w, const measure::GameCampaign::Result& r) {
  w["qoe.sessions"] += r.matches_completed;
  w["qoe.game_ticks_lost"] += static_cast<double>(r.ticks_lost);
}

// Fleet: one arbiter epoch every fleet.epoch, plus the one at t = 0.
double sim_seconds(const fleet::FleetCampaign::Config& c, const fleet::FleetCampaign::Result&) {
  return c.duration.to_seconds();
}
std::string check(const fleet::FleetCampaign::Config& c, const fleet::FleetCampaign::Result& r,
                  int cells) {
  const auto per_cell = static_cast<std::uint64_t>(c.duration / c.fleet.epoch) + 1;
  return expect("fleet epochs", r.epochs, per_cell * times(1, cells));
}
std::string summary(const fleet::FleetCampaign::Result& r) {
  const stats::StreamingSummary util = r.cell_util_down.pooled();
  return stat("fg_down", r.foreground_down_mbps) + stat("fg_up", r.foreground_up_mbps) +
         count("util_n", static_cast<double>(util.count())) + count("util_mean", util.mean()) +
         count("epochs", static_cast<double>(r.epochs)) +
         count("reallocations", static_cast<double>(r.reallocations));
}
void add_work(Work& w, const fleet::FleetCampaign::Result& r) {
  w["fleet.epochs"] += static_cast<double>(r.epochs);
  w["fleet.reallocations"] += static_cast<double>(r.reallocations);
  w["fleet.attaches"] += static_cast<double>(r.attaches);
}

/// Per-link conservation on one snapshot: every packet a link accepted was
/// delivered, dropped, or is still in flight.
std::string check_links(const obs::Snapshot& snap) {
  static constexpr std::string_view kEnq = "enqueued_packets";
  const auto get = [&snap](const std::string& key) {
    const auto it = snap.counters.find(key);
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  for (const auto& [key, enqueued] : snap.counters) {
    if (!key.starts_with("link.") || !key.ends_with(kEnq)) continue;
    const std::string prefix = key.substr(0, key.size() - kEnq.size());
    const std::uint64_t out = get(prefix + "delivered_packets") + get(prefix + "dropped_aqm") +
                              get(prefix + "dropped_medium") + get(prefix + "dropped_overflow");
    if (enqueued < out) return expect((prefix + "enqueued >= delivered + drops").c_str(),
                                      enqueued, out);
  }
  return {};
}

// ------------------------------------------------------------------ groups

/// One campaign of a workload: a Config swept over `cells` seed cells.
class Group {
 public:
  Group(std::string name, std::string layer, int cells)
      : name_{std::move(name)}, layer_{std::move(layer)}, cells_{cells} {}
  virtual ~Group() = default;
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& layer() const { return layer_; }
  [[nodiscard]] int cells() const { return cells_; }

  /// Builds and drops cell `cell`'s universe; returns the constructor's wall.
  [[nodiscard]] virtual double build(int cell) const = 0;
  /// Fleet placement wall for cell `cell` (0 without a fleet).
  [[nodiscard]] virtual double placement(int cell) const = 0;
  virtual void run(int cell) = 0;
  /// Empty when cell `cell`'s outputs pass every check.
  [[nodiscard]] virtual std::string check(int cell) const = 0;
  [[nodiscard]] virtual double sim_seconds(int cell) const = 0;
  /// Folds the cells in cell-id order (consumes them).
  virtual void merge() = 0;
  /// The sweep-API path: runner::run_merged over all cells at `workers`.
  virtual void run_merged(int workers) = 0;
  [[nodiscard]] virtual std::string check_merged() const = 0;
  [[nodiscard]] virtual const obs::Snapshot& merged_obs() const = 0;
  [[nodiscard]] virtual std::string summary() const = 0;
  virtual void add_work(Work& w) const = 0;

 private:
  std::string name_;
  std::string layer_;
  int cells_;
};

template <typename Campaign>
class CampaignGroup final : public Group {
 public:
  using Config = typename Campaign::Config;
  using Result = typename Campaign::Result;

  CampaignGroup(std::string name, std::string layer, int cells, Config config)
      : Group{std::move(name), std::move(layer), cells},
        config_{std::move(config)},
        results_(static_cast<std::size_t>(cells)) {}

  double build(int cell) const override { return build_seconds(cell_config(cell)); }
  double placement(int cell) const override {
    if constexpr (std::is_same_v<Campaign, fleet::FleetCampaign>) {
      return placement_seconds(cell_config(cell));
    } else {
      (void)cell;
      return 0.0;
    }
  }
  void run(int cell) override { results_[slot(cell)] = Campaign::run(cell_config(cell)); }
  std::string check(int cell) const override {
    const Result& r = results_[slot(cell)];
    std::string err = ::check(config_, r, 1);
    return err.empty() ? check_links(r.obs) : err;
  }
  double sim_seconds(int cell) const override {
    return ::sim_seconds(config_, results_[slot(cell)]);
  }
  void merge() override {
    merged_ = std::move(results_.front());
    for (std::size_t i = 1; i < results_.size(); ++i) {
      using measure::merge;
      using fleet::merge;
      merge(merged_, results_[i]);
    }
  }
  void run_merged(int workers) override {
    merged_ = runner::run_merged<Campaign>({cells(), workers}, config_);
  }
  std::string check_merged() const override {
    std::string err = ::check(config_, merged_, cells());
    return err.empty() ? check_links(merged_.obs) : err;
  }
  const obs::Snapshot& merged_obs() const override { return merged_.obs; }
  std::string summary() const override { return ::summary(merged_); }
  void add_work(Work& w) const override {
    ::add_work(w, merged_);
    if constexpr (std::is_same_v<Campaign, measure::H3Campaign>) {
      w["quic.h3_abandoned"] += static_cast<double>(abandoned(config_, merged_, cells()));
    }
  }

 private:
  static std::size_t slot(int cell) { return static_cast<std::size_t>(cell); }
  Config cell_config(int cell) const {
    Config c = config_;
    c.seed = runner::cell_seed(config_.seed, static_cast<std::uint64_t>(cell));
    return c;
  }

  Config config_;
  std::vector<Result> results_;
  Result merged_;
};

using Workload = std::vector<std::unique_ptr<Group>>;

template <typename Campaign>
void add(Workload& w, std::string name, std::string layer, int cells,
         typename Campaign::Config config) {
  w.push_back(std::make_unique<CampaignGroup<Campaign>>(std::move(name), std::move(layer), cells,
                                                        std::move(config)));
}

// --------------------------------------------------------------- workloads

/// Figure 5: Starlink and SatCom 8-connection speedtests down and up (SatCom
/// through the PEP) and single-connection H3 down and up. A download
/// speedtest cell's cost depends on its seed (a SatCom one takes 0.5-4.4 s
/// for the same events), while an H3 cell's varies about 20%; so the mix
/// leans on H3 cells, which keeps the batch's total work, and with it the
/// makespan, steady across seeds. The heaviest campaigns come first, so the
/// pool starts them first.
Workload bulk_transfer(std::uint64_t seed, const obs::Options& obs) {
  Workload w;
  const auto speedtest = [&](std::string name, std::uint64_t s, AccessKind access,
                             bool download, int cells) {
    measure::SpeedtestCampaign::Config c;
    c.seed = s;
    c.access = access;
    c.download = download;
    c.tests = 1;
    c.obs = obs;
    add<measure::SpeedtestCampaign>(w, std::move(name), "tcp", cells, c);
  };
  speedtest("speedtest.satcom.down", seed + 2, AccessKind::kSatCom, true, 2);
  measure::H3Campaign::Config down;
  down.seed = seed + 4;
  down.transfers = 1;
  down.obs = obs;
  add<measure::H3Campaign>(w, "h3.down", "quic", 6, down);
  measure::H3Campaign::Config up = down;
  up.seed = seed + 5;
  up.download = false;
  up.bytes = 40ull * 1000 * 1000;
  add<measure::H3Campaign>(w, "h3.up", "quic", 6, up);
  speedtest("speedtest.starlink.down", seed, AccessKind::kStarlink, true, 4);
  speedtest("speedtest.starlink.up", seed + 1, AccessKind::kStarlink, false, 2);
  speedtest("speedtest.satcom.up", seed + 3, AccessKind::kSatCom, false, 2);
  return w;
}

/// Figure 2: 3 pings to each of the 11 anchors every hour over the 146-day
/// campaign, with the paper's epochs, in eight cells. A cell's cost follows
/// its simulated span, not its ping count, so cells are not split shorter.
Workload ping_timeline(std::uint64_t seed, const obs::Options& obs) {
  measure::PingCampaign::Config c;
  c.seed = seed;
  c.duration = Duration::days(146);
  c.cadence = Duration::hours(1);
  c.epochs = true;
  c.obs = obs;
  Workload w;
  add<measure::PingCampaign>(w, "ping", "ping", 8, c);
  return w;
}

std::shared_ptr<const scenario::Scenario> handover_storm(Duration horizon) {
  auto storm = std::make_shared<scenario::Scenario>();
  storm->name = "handover-storm";
  storm->maintenance(TimePoint::epoch() + Duration::seconds(15), TimePoint::epoch() + horizon,
                     Duration::seconds(15), Duration::seconds(2));
  storm->validate();
  return storm;
}

std::shared_ptr<const scenario::Scenario> highway_drive(Duration horizon) {
  double speed = 1.0;
  if (const auto route = mobility::routes::lookup("highway")) {
    speed = std::max(1.0, route->trajectory.total_duration().to_seconds() / horizon.to_seconds());
  }
  auto motion = std::make_shared<scenario::Scenario>();
  motion->name = "in-motion";
  motion->move(TimePoint::epoch(), TimePoint::epoch() + horizon, "highway", speed);
  motion->validate();
  return motion;
}

/// Figure 6 page loads over the three accesses, Figure 8 game matches under
/// clear sky, the handover storm and in motion (bench/fig6 and bench/fig8 at
/// --scale=4), and short H3 fetches: connection set-up, short flows and small
/// UDP datagrams rather than long-lived congestion control. Figure 8's ABR
/// and videoconferencing sessions are left out: about one QUIC connection in
/// a hundred stalls for good, and AbrCampaign and VcCampaign, which have no
/// watchdog, then never launch their remaining sessions, so some seeds would
/// fail their check. H3Campaign's watchdog abandons a stalled fetch instead.
Workload interactive_apps(std::uint64_t seed, const obs::Options& obs) {
  // Many short cells, so no single cell sets the batch's makespan.
  Workload w;
  const auto web = [&](std::string name, AccessKind access, int cells, int visits) {
    measure::WebCampaign::Config c;
    c.seed = seed;
    c.access = access;
    c.visits = visits;
    c.obs = obs;
    add<measure::WebCampaign>(w, std::move(name), "web", cells, c);
  };
  web("web.starlink", AccessKind::kStarlink, 8, 40);
  web("web.satcom", AccessKind::kSatCom, 6, 25);
  web("web.wired", AccessKind::kWired, 4, 40);

  measure::H3Campaign::Config fetch;
  fetch.seed = seed + 1;
  fetch.transfers = 2;
  fetch.bytes = 2ull * 1000 * 1000;
  fetch.gap = Duration::seconds(5);
  fetch.transfer_timeout = Duration::minutes(1);
  fetch.obs = obs;
  add<measure::H3Campaign>(w, "h3.fetch", "quic", 4, fetch);

  constexpr int kMatches = 8;
  measure::GameCampaign::Config game;
  game.seed = seed + 2;
  game.matches = kMatches;
  game.obs = obs;
  game.obs.provenance = true;  // the stall attribution needs it, as in fig8
  game.session.detector.abs_ms = 60.0;
  const Duration game_horizon =
      (game.session.duration + game.gap) * kMatches + Duration::seconds(30);
  add<measure::GameCampaign>(w, "game.clear", "qoe", 1, game);
  game.scenario = handover_storm(game_horizon);
  add<measure::GameCampaign>(w, "game.storm", "qoe", 1, game);
  game.scenario = highway_drive(game_horizon);
  add<measure::GameCampaign>(w, "game.motion", "qoe", 1, game);
  return w;
}

/// A million terminals over continental Europe with idle-cell aggregation:
/// sixteen cells of ninety simulated minutes, so a batch covers one simulated
/// day.
Workload continental_fleet(std::uint64_t seed, int shards, const obs::Options& obs) {
  fleet::FleetCampaign::Config c;
  c.seed = seed;
  c.duration = Duration::minutes(90);
  c.fleet.size = 1'000'000;
  c.fleet.placement = fleet::Placement::continental_europe();
  c.fleet.aggregate_idle = true;
  c.fleet.shards = shards;
  c.obs = obs;
  Workload w;
  add<fleet::FleetCampaign>(w, "fleet", "fleet", 16, c);
  return w;
}

// ------------------------------------------------------------------ output

/// FNV-1a, 64 bit: a stable digest of the exported text.
std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, obs::json_number_exact(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, obs::json_quote(v));
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + obs::json_quote(key) + ":" + json;
    return *this;
  }
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) out += (i ? "," : "") + items[i];
  return out + "]";
}

/// Universe builds per cell in a set-up process: at least kSetupMinBuilds
/// and at least kSetupMinSeconds of them (a Testbed builds in ~60 us, a
/// million-terminal Fleet in ~10 ms), at most kSetupMaxBuilds.
constexpr std::size_t kSetupMinBuilds = 5;
constexpr std::size_t kSetupMaxBuilds = 64;
constexpr double kSetupMinSeconds = 0.002;

struct CellRecord {
  Group* group = nullptr;
  int cell = 0;
  double setup_s = 0.0;
  double placement_s = 0.0;
  double wall_s = 0.0;
  double sim_s = 0.0;
  std::string error;
};

}  // namespace

int main(int argc, char** argv) {
  const auto t_start = Clock::now();
  const Flags flags = Flags::parse(argc, argv);
  const std::string workload = flags.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const int workers = std::max(1, static_cast<int>(flags.get_int("workers", 2)));
  const int shards = std::max(1, static_cast<int>(flags.get_int("shards", 1)));
  const bool traced = flags.get_bool("trace", false);
  const std::string spans_path = flags.get("spans", "");
  const std::string via = flags.get("via", "pool");
  for (const auto& key : flags.unused()) {
    std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
    return 2;
  }
  if (via != "pool" && via != "run_merged" && via != "setup") {
    std::fprintf(stderr, "error: --via=%s (known: pool run_merged setup)\n", via.c_str());
    return 2;
  }

  obs::Options obs_options;
  obs_options.metrics = true;  // the output check reads the counters
  obs_options.profile = traced;
  Workload groups;
  if (workload == "bulk_transfer") {
    groups = bulk_transfer(seed, obs_options);
  } else if (workload == "ping_timeline") {
    groups = ping_timeline(seed, obs_options);
  } else if (workload == "interactive_apps") {
    groups = interactive_apps(seed, obs_options);
  } else if (workload == "continental_fleet") {
    groups = continental_fleet(seed, shards, obs_options);
  } else {
    std::fprintf(stderr,
                 "error: --workload=%s (known: bulk_transfer ping_timeline interactive_apps "
                 "continental_fleet)\n",
                 workload.c_str());
    return 2;
  }

  std::vector<CellRecord> cells;
  for (const auto& g : groups) {
    for (int c = 0; c < g->cells(); ++c) {
      CellRecord rec;
      rec.group = g.get();
      rec.cell = c;
      cells.push_back(rec);
    }
  }

  LineCapture capture;
  std::streambuf* const cerr_buf = traced ? std::cerr.rdbuf(&capture) : nullptr;
  SpanLog spans{t_start};
  std::vector<std::string> errors;
  double run_s = 0.0;
  double merge_s = 0.0;

  if (via == "setup") {
    // Each cell's universe built repeatedly, serially; the cell's set-up
    // time is the median build.
    for (std::size_t i = 0; i < cells.size(); ++i) {
      CellRecord& rec = cells[i];
      const auto t0 = Clock::now();
      std::vector<double> builds;
      double spent = 0.0;
      try {
        while (builds.size() < kSetupMaxBuilds &&
               (builds.size() < kSetupMinBuilds || spent < kSetupMinSeconds)) {
          builds.push_back(rec.group->build(rec.cell));
          spent += builds.back();
        }
        const auto mid = builds.begin() + static_cast<std::ptrdiff_t>(builds.size() / 2);
        std::nth_element(builds.begin(), mid, builds.end());
        rec.setup_s = *mid;
        if (traced) rec.placement_s = rec.group->placement(rec.cell);
      } catch (const std::exception& e) {
        rec.error = e.what();
        errors.push_back(rec.group->name() + ": " + rec.error);
      }
      spans.add("setup", "batch", static_cast<int>(i), t0, Clock::now());
    }
  } else if (via == "pool") {
    // Run: one closed batch of every cell on one pool.
    const auto t_run = Clock::now();
    {
      runner::Pool pool{workers};
      for (std::size_t i = 0; i < cells.size(); ++i) {
        pool.submit([&cells, &spans, i] {
          CellRecord& rec = cells[i];
          t_cell = static_cast<int>(i);
          const auto t0 = Clock::now();
          try {
            rec.group->run(rec.cell);
          } catch (const std::exception& e) {
            rec.error = e.what();
          } catch (...) {
            rec.error = "unknown exception";
          }
          const auto t1 = Clock::now();
          rec.wall_s = seconds_between(t0, t1);
          spans.add("cell", "run", static_cast<int>(i), t0, t1);
          t_cell = -1;
        });
      }
      pool.drain();
    }
    const auto t_run_end = Clock::now();
    run_s = seconds_between(t_run, t_run_end);
    spans.add("run", "batch", -1, t_run, t_run_end);
    for (CellRecord& rec : cells) {
      if (rec.error.empty()) rec.error = rec.group->check(rec.cell);
      if (rec.error.empty()) {
        rec.sim_s = rec.group->sim_seconds(rec.cell);
      } else {
        errors.push_back(rec.group->name() + ": " + rec.error);
      }
    }
    if (errors.empty()) {
      const auto t_merge = Clock::now();
      for (const auto& g : groups) g->merge();
      const auto t_merge_end = Clock::now();
      merge_s = seconds_between(t_merge, t_merge_end);
      spans.add("merge", "batch", -1, t_merge, t_merge_end);
    }
  } else {
    const auto t_run = Clock::now();
    for (const auto& g : groups) {
      try {
        g->run_merged(workers);
        const std::string err = g->check_merged();
        if (!err.empty()) errors.push_back(g->name() + ": " + err);
      } catch (const std::exception& e) {
        errors.push_back(g->name() + ": " + e.what());
      }
    }
    run_s = seconds_between(t_run, Clock::now());
  }
  if (cerr_buf != nullptr) std::cerr.rdbuf(cerr_buf);

  // Export: one snapshot for the batch, digested with the result summaries.
  std::string digest = "none";
  double export_s = 0.0;
  JsonObject counters;
  JsonObject work_doc;
  if (errors.empty() && via != "setup") {
    const auto t_fold = Clock::now();
    obs::Snapshot all;
    for (const auto& g : groups) obs::merge(all, g->merged_obs());
    const auto t_fold_end = Clock::now();
    merge_s += seconds_between(t_fold, t_fold_end);
    spans.add("merge", "batch", -1, t_fold, t_fold_end);
    const auto t_export = Clock::now();
    const std::string metrics = obs::metrics_json(all);
    const auto t_export_end = Clock::now();
    export_s = seconds_between(t_export, t_export_end);
    spans.add("export", "batch", -1, t_export, t_export_end);

    std::uint64_t h = fnv1a(metrics);
    Work work;
    for (const auto& g : groups) {
      h = fnv1a(g->name() + ":" + g->summary() + "\n", h);
      g->add_work(work);
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    digest = buf;
    for (const auto& [key, v] : all.counters) counters.num(key, static_cast<double>(v));
    for (const auto& [key, v] : work) work_doc.num(key, v);
  }
  if (!spans_path.empty()) spans.write_jsonl(spans_path);
  for (const std::string& e : errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::vector<std::string> cell_docs;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellRecord& rec = cells[i];
    cell_docs.push_back(JsonObject{}
                            .num("id", static_cast<double>(i))
                            .str("group", rec.group->name())
                            .str("layer", rec.group->layer())
                            .num("setup_s", rec.setup_s)
                            .num("placement_s", rec.placement_s)
                            .num("wall_s", rec.wall_s)
                            .num("sim_s", rec.sim_s)
                            .str("error", rec.error)
                            .dump());
  }
  std::vector<std::string> profile;
  for (const LineCapture::Line& line : capture.take()) {
    profile.push_back(JsonObject{}.num("cell", line.cell).str("text", line.text).dump());
  }
  std::vector<std::string> error_docs;
  for (const std::string& e : errors) error_docs.push_back(obs::json_quote(e));
  JsonObject out;
  out.str("workload", workload)
      .num("seed", static_cast<double>(seed))
      .num("workers", workers)
      .num("shards", shards)
      .str("via", via)
      .raw("traced", traced ? "true" : "false")
      .str("digest", digest)
      .raw("errors", json_array(error_docs))
      .num("run_s", run_s)
      .num("merge_s", merge_s)
      .num("export_s", export_s)
      .num("main_s", seconds_between(t_start, Clock::now()))
      .num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0)
      .str("build_type", SLP_PERFBENCH_BUILD_TYPE)
      .str("compiler", SLP_PERFBENCH_COMPILER)
      .raw("cells", json_array(cell_docs))
      .raw("counters", counters.dump())
      .raw("work", work_doc.dump())
      .raw("profile", json_array(profile));
  std::printf("%s\n", out.dump().c_str());
  return errors.empty() ? 0 : 1;
}
