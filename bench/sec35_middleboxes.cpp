// §3.5 — middleboxes and traffic discrimination.
//
// Paper findings to reproduce: traceroute over Starlink reveals two NAT
// levels (192.168.1.1, then 100.64.0.1); Tracebox finds no PEP — the TCP
// handshake completes in the destination network and only checksums are
// altered; ten Wehe runs find no traffic differentiation. The SatCom run
// (the technology PEPs were built for) is included as the positive control.
#include <cstdio>

#include "bench_common.hpp"
#include "measure/campaign.hpp"

namespace {

void print_audit(const char* name, const slp::measure::MiddleboxAudit::Result& result) {
  std::printf("--- %s ---\n", name);
  std::printf("traceroute:\n");
  for (const auto& hop : result.traceroute) {
    std::printf("  %2d  %-16s %7.1f ms%s\n", hop.ttl,
                hop.reporter == 0 ? "*" : slp::sim::addr_to_string(hop.reporter).c_str(),
                hop.rtt.to_millis(), hop.reached_destination ? "  <- destination" : "");
  }
  std::printf("tracebox: destination at %d hops, handshake answered at TTL %d -> %s\n",
              result.tracebox.destination_distance, result.tracebox.handshake_ttl,
              result.tracebox.pep_detected ? "PEP DETECTED" : "no PEP");
  std::printf("  modified fields:");
  if (result.tracebox.all_modified_fields.empty()) std::printf(" (none)");
  for (const auto& field : result.tracebox.all_modified_fields) {
    std::printf(" %s", field.c_str());
  }
  std::printf("\n");
  std::printf("wehe: original %.2f Mbit/s vs randomized %.2f Mbit/s -> %s\n\n",
              result.wehe.mean_original_mbps, result.wehe.mean_randomized_mbps,
              result.wehe.differentiation_detected ? "DIFFERENTIATION DETECTED"
                                                   : "no differentiation");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slp;
  const auto args = bench::CommonArgs::parse(argc, argv);
  if (args.seeds > 1) {
    std::fprintf(stderr, "error: --seeds=%d: the middlebox audit runs one cell per access "
                         "(no multi-seed merge)\n", args.seeds);
    return 2;
  }
  bench::banner("§3.5", "middleboxes (traceroute, Tracebox) and TD (Wehe)");

  obs::Snapshot all_obs;
  {
    measure::MiddleboxAudit::Config config;
    config.seed = args.seed;
    config.access = measure::AccessKind::kStarlink;
    args.apply(config);
    const auto result = measure::MiddleboxAudit::run(config);
    obs::merge(all_obs, result.obs);
    print_audit("Starlink (paper: 2 NATs, checksums only, no PEP, no TD)", result);
  }
  {
    measure::MiddleboxAudit::Config config;
    config.seed = args.seed + 1;
    config.access = measure::AccessKind::kSatCom;
    args.apply(config);
    const auto result = measure::MiddleboxAudit::run(config);
    obs::merge(all_obs, result.obs);
    print_audit("SatCom control (PEPs are the norm on GEO links)", result);
  }
  bench::write_obs(args, all_obs);
  return 0;
}
