// Ablation — inter-satellite links (§3.1, §4).
//
// The paper verified via traceroute that transatlantic traffic exited
// through the same European PoPs (no ISLs yet) and anticipated activation.
// This bench compares the measured bent-pipe RTTs of the distant anchors
// against the ISL analytic model and the terrestrial-fiber reference.
#include <cstdio>

#include "bench_common.hpp"
#include "leo/isl.hpp"
#include "leo/places.hpp"
#include "measure/campaign.hpp"

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run{argc, argv};
  const auto& args = run.args();
  run.start("Ablation: ISLs", "bent-pipe (measured) vs ISL routing (model)");

  measure::PingCampaign::Config config;
  config.seed = args.seed;
  config.duration = Duration::hours(static_cast<std::int64_t>(12 * args.scale));
  config.cadence = Duration::minutes(5);
  config.epochs = false;
  const auto pings = run.sweep<measure::PingCampaign>(config);

  struct Target {
    const char* anchor_name;
    leo::GeoPoint location;
    const char* paper_rtt;
  };
  const Target targets[] = {
      {"new-york", leo::places::kNewYork, "~130-150 ms"},
      {"fremont", leo::places::kFremont, "184 ms"},
      {"singapore", leo::places::kSingapore, "270 ms"},
  };

  stats::TextTable table{{"destination", "bent-pipe median (measured)", "paper",
                          "ISL model RTT", "fiber reference RTT", "ISL hops"}};
  for (const Target& target : targets) {
    double measured = 0.0;
    for (const auto& anchor : pings.anchors) {
      if (anchor.name == target.anchor_name && !anchor.rtt_ms.empty()) {
        measured = anchor.rtt_ms.median();
      }
    }
    const auto isl = leo::isl_latency(leo::places::kLouvainLaNeuve, target.location);
    const Duration fiber = leo::fiber_rtt(leo::places::kLouvainLaNeuve, target.location);
    using stats::TextTable;
    table.add_row({target.anchor_name, TextTable::num(measured, 0) + " ms", target.paper_rtt,
                   TextTable::num(isl.rtt.to_millis(), 0) + " ms",
                   TextTable::num(fiber.to_millis(), 0) + " ms", std::to_string(isl.hops)});
  }
  std::printf("%s", table.str().c_str());
  std::printf("\nExpected shape: ISL routing undercuts the bent-pipe + fiber "
              "detour substantially on transcontinental routes (laser at c in "
              "vacuum vs fiber at 2c/3 with path stretch).\n");
  return run.finish();
}
