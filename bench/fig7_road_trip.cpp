// Figure 7 (mobility extension) — latency and loss while the terminal is in
// motion: RTT/loss per speed bin and the outage-duration ECDF for a
// highway-vs-rural route pair.
//
// The paper measured a fixed roof-mounted dish; this regenerator extends the
// reproduction to the "Starlink for RVs" question the paper raises in §5:
// how much of the stationary latency budget survives at 120 km/h behind
// tree lines and tunnels? The highway route (Brussels -> Liege, fast, tree
// lines + two tunnels) is compared against a rural loop (Louvain-la-Neuve,
// slow, open sky).
//
// Flags beyond the common set (bench_common.hpp):
//   --route=NAME     run one route instead of the pair (highway | rural)
//   --speed=F        speed scale applied to every leg (default 1.0)
//   --cadence=DUR    probe cadence (default 1s)
//   --duration=DUR   probe window (default: the whole route + 30 s)
//   --obstructions=0 strip the route's obstruction masks (ablation)
//   --fleet=N        simulated neighbour terminals (cell migrations then
//                    land in arbiters with real background members), plus
//                    the other fleet flags of bench_common.hpp
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "measure/campaign.hpp"
#include "mobility/routes.hpp"
#include "stats/ecdf.hpp"

namespace {

using namespace slp;

std::string bin_label(std::uint64_t key) {
  return std::to_string(key * 20) + "-" + std::to_string((key + 1) * 20) + " km/h";
}

void report(const std::string& name, const measure::RoadTripCampaign::Result& r) {
  std::printf("\n--- route: %s (%.1f km) ---\n", name.c_str(), r.route_km);
  const double loss_pct = r.probes_sent > 0
                              ? 100.0 * static_cast<double>(r.probes_lost) /
                                    static_cast<double>(r.probes_sent)
                              : 0.0;
  std::printf("probes: %llu sent, %llu lost (%.2f%%) | reroutes %llu, "
              "cell migrations %llu, tunnels %llu\n",
              static_cast<unsigned long long>(r.probes_sent),
              static_cast<unsigned long long>(r.probes_lost), loss_pct,
              static_cast<unsigned long long>(r.reroutes),
              static_cast<unsigned long long>(r.cell_migrations),
              static_cast<unsigned long long>(r.tunnels));

  stats::TextTable table{{"speed bin", "probes", "loss %", "rtt p50", "rtt p95"}};
  for (const auto& [key, group] : r.loss_by_speed.groups()) {
    using stats::TextTable;
    const auto* rtt = [&]() -> const stats::KeyedSamples::Group* {
      const auto it = r.rtt_by_speed.groups().find(key);
      return it == r.rtt_by_speed.groups().end() ? nullptr : &it->second;
    }();
    table.add_row({bin_label(key), std::to_string(group.summary.count()),
                   TextTable::num(group.summary.mean() * 100.0, 2),
                   rtt != nullptr ? TextTable::num(r.rtt_by_speed.quantile(key, 0.5), 1) : "-",
                   rtt != nullptr ? TextTable::num(r.rtt_by_speed.quantile(key, 0.95), 1) : "-"});
  }
  std::printf("%s", table.str().c_str());

  if (r.outage_s.empty()) {
    std::printf("outages: none\n");
  } else {
    std::printf("outages: %zu (longest %.0f s), duration ECDF:\n", r.outage_s.size(),
                r.outage_s.max());
    const stats::Ecdf ecdf{r.outage_s};
    const double probs[] = {0.5, 0.9, 0.99};
    std::printf("%s", stats::render_cdf_rows(ecdf, probs, " s").c_str());
  }

  std::int64_t attributed = 0;
  for (const std::int64_t c : r.comp_ns) attributed += c;
  if (attributed > 0) {
    const double stall_share =
        static_cast<double>(r.comp_ns[obs::kHandoverStall]) / static_cast<double>(attributed);
    std::printf("provenance: handover_stall %.1f%% of attributed RTT "
                "(%.1f ms total across probes)\n",
                100.0 * stall_share,
                static_cast<double>(r.comp_ns[obs::kHandoverStall]) * 1e-6);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run{argc, argv};
  const auto& args = run.args();
  const Flags& flags = run.flags();
  const std::string only_route = flags.get("route", "");
  const double speed = flags.get_double("speed", 1.0);
  const Duration cadence = flags.get_duration("cadence", Duration::seconds(1));
  const Duration duration = flags.get_duration("duration", Duration::zero());
  const bool obstructions = flags.get_bool("obstructions", true);
  const fleet::Fleet::Config fleet_config = bench::parse_fleet(flags);
  run.start("Figure 7 (extension)", "RTT and loss in motion: the road-trip campaigns");

  std::vector<std::string> routes;
  if (only_route.empty()) {
    routes = {"highway", "rural"};
  } else {
    routes = {only_route};
  }

  std::uint64_t seed_offset = 0;
  for (const std::string& name : routes) {
    measure::RoadTripCampaign::Config config;
    config.seed = args.seed + seed_offset++;
    config.route = name;
    config.speed_scale = speed;
    config.cadence = cadence;
    config.duration = duration;
    config.obstructions = obstructions;
    config.fleet = fleet_config;
    report(name, run.sweep<measure::RoadTripCampaign>(config));
  }

  std::printf("\nShape to check: the highway's fast bins carry the loss and the "
              "long outages (tree lines + tunnels force re-acquisitions at "
              "speed); the rural loop stays close to the stationary baseline.\n");
  return run.finish();
}
