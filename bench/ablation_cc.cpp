// Ablation — congestion control on a LEO access (§4 outlook).
//
// The paper measured Cubic everywhere. This bench swaps the congestion
// controller of a single bulk TCP download over the Starlink access:
// loss-based control (Cubic, NewReno) pays for every medium-loss burst,
// while model-based BBR shrugs them off and keeps the queue shallow.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "measure/testbed.hpp"
#include "runner/pool.hpp"
#include "tcp/tcp.hpp"

namespace {

using namespace slp;

struct CcResult {
  double mbps = 0.0;
  double srtt_ms = 0.0;
  std::uint64_t retransmissions = 0;
  obs::Snapshot obs;
};

CcResult run_one(const bench::CommonArgs& args, std::uint64_t seed,
                 cc::CcAlgorithm algorithm, bool heavy_medium_loss) {
  measure::TestbedConfig config;
  args.apply(config);
  config.seed = seed;
  config.with_satcom = false;
  if (heavy_medium_loss) {
    // A rainy/obstructed installation: medium-loss bursts every ~3 s.
    config.starlink.medium_loss.mean_good = Duration::from_seconds(3.0);
    config.starlink.uplink_medium_good = Duration::from_seconds(3.0);
  }
  measure::Testbed bed{config};
  tcp::TcpStack client_stack{bed.client(measure::AccessKind::kStarlink)};
  tcp::TcpStack server_stack{bed.campus_server()};
  std::uint64_t delivered = 0;
  TimePoint first, last;
  tcp::TcpConfig server_tcp;
  server_tcp.algorithm = algorithm;
  server_tcp.initial_rcv_buffer = 1024 * 1024;
  server_stack.listen(80, [&](tcp::TcpConnection& c) {
    c.on_data = [&c](std::uint64_t) { c.send(120'000'000); };
  }, server_tcp);
  tcp::TcpConnection& conn = client_stack.connect(bed.campus_server().addr(), 80);
  conn.on_data = [&](std::uint64_t n) {
    if (delivered == 0) first = bed.sim().now();
    delivered += n;
    last = bed.sim().now();
  };
  conn.on_established = [&conn] { conn.send(100); };
  bed.sim().run_until(TimePoint::epoch() + Duration::minutes(3));

  CcResult result;
  if (delivered > 1'000'000) {
    result.mbps = delivered * 8.0 / (last - first).to_seconds() / 1e6;
  }
  result.srtt_ms = conn.srtt().to_millis();
  result.obs = bed.take_obs();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slp;
  const auto args = bench::CommonArgs::parse(argc, argv);
  bench::banner("Ablation: congestion control",
                "single bulk TCP download over Starlink, per controller");

  struct Row {
    const char* name;
    cc::CcAlgorithm algorithm;
  };
  const Row rows[] = {{"cubic (paper)", cc::CcAlgorithm::kCubic},
                      {"newreno", cc::CcAlgorithm::kNewReno},
                      {"bbr", cc::CcAlgorithm::kBbr}};

  // Every (loss regime, controller, replication) is an independent cell —
  // run them all on one pool and read results back in cell order, so the
  // table is identical for any --jobs.
  const int runs = args.scaled(3) * args.seeds;
  std::vector<CcResult> cells(2 * 3 * static_cast<std::size_t>(runs));
  {
    runner::Pool pool{args.jobs};
    std::size_t cell = 0;
    for (const bool heavy : {false, true}) {
      for (const Row& row : rows) {
        for (int i = 0; i < runs; ++i, ++cell) {
          const std::uint64_t seed = args.seed + static_cast<std::uint64_t>(i) * 13;
          pool.submit([&cells, &args, cell, seed, algorithm = row.algorithm, heavy] {
            cells[cell] = run_one(args, seed, algorithm, heavy);
          });
        }
      }
    }
    pool.drain();
  }

  std::size_t cell = 0;
  for (const bool heavy : {false, true}) {
    std::printf("%s\n", heavy ? "\nheavy medium loss (bursts every ~3 s — rainy/obstructed dish):"
                               : "default calibration (bursts every ~24 s):");
    stats::TextTable table{{"controller", "p25 Mbit/s", "median Mbit/s", "p75 Mbit/s"}};
    for (const Row& row : rows) {
      stats::Samples mbps;
      for (int i = 0; i < runs; ++i, ++cell) mbps.add(cells[cell].mbps);
      using stats::TextTable;
      table.add_row({row.name, TextTable::num(mbps.percentile(25), 0),
                     TextTable::num(mbps.median(), 0),
                     TextTable::num(mbps.percentile(75), 0)});
    }
    std::printf("%s", table.str().c_str());
  }
  std::printf("\nExpected shape: with rare loss events the three controllers are "
              "comparable; as medium loss intensifies, loss-based control "
              "(NewReno worst, Cubic next) backs off for every burst while "
              "BBR's model ignores them (§3.2's closing remark: transports "
              "cannot tell medium loss from congestion — unless they stop "
              "using loss as the signal).\n");

  // Cells were filled by completion order but are merged by index — the
  // export is --jobs invariant like everything else.
  obs::Snapshot all_obs;
  for (const CcResult& c : cells) obs::merge(all_obs, c.obs);
  bench::write_obs(args, all_obs);
  return 0;
}
