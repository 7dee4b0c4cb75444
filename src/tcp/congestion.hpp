// congestion.hpp — congestion controllers shared by the TCP and QUIC stacks.
//
// Both measurement setups in the paper run Cubic (Linux TCP default; quiche
// configured with Cubic). NewReno is included as the classic baseline and
// for the ablation benches.
//
// Namespace note: lives in slp::cc because QUIC links against the same
// controllers — the algorithms are transport-agnostic byte counters.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/units.hpp"

namespace slp::cc {

/// Byte-based congestion controller interface (RFC 9002 style).
class CongestionController {
 public:
  virtual ~CongestionController() = default;

  /// Bytes newly acknowledged, with the RTT sample of the triggering ACK.
  virtual void on_ack(std::uint64_t acked_bytes, Duration rtt, TimePoint now) = 0;
  /// One congestion event (at most once per round trip), RFC 5681 semantics.
  virtual void on_congestion_event(TimePoint now) = 0;
  /// Retransmission timeout: collapse to loss-window.
  virtual void on_rto(TimePoint now) = 0;

  [[nodiscard]] virtual std::uint64_t cwnd_bytes() const = 0;
  [[nodiscard]] virtual std::uint64_t ssthresh_bytes() const = 0;
  [[nodiscard]] virtual bool in_slow_start() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

struct CcConfig {
  std::uint32_t mss = 1448;              ///< sender maximum segment size
  std::uint32_t initial_window_segments = 10;  ///< RFC 6928
  std::uint64_t min_cwnd_bytes = 2 * 1448;
  /// HyStart delay-based slow-start exit. Linux TCP has it; quiche at the
  /// paper's commit did not — which is a key reason its single-connection
  /// H3 downloads sat below the multi-connection Ookla TCP tests (§3.3).
  bool hystart = true;
};

/// CUBIC (RFC 8312): cubic window growth anchored at the last W_max.
class Cubic final : public CongestionController {
 public:
  explicit Cubic(CcConfig config = {});

  void on_ack(std::uint64_t acked_bytes, Duration rtt, TimePoint now) override;
  void on_congestion_event(TimePoint now) override;
  void on_rto(TimePoint now) override;

  [[nodiscard]] std::uint64_t cwnd_bytes() const override { return cwnd_; }
  [[nodiscard]] std::uint64_t ssthresh_bytes() const override { return ssthresh_; }
  [[nodiscard]] bool in_slow_start() const override { return cwnd_ < ssthresh_; }
  [[nodiscard]] std::string name() const override { return "cubic"; }

 private:
  [[nodiscard]] double cubic_window_segments(double t_seconds) const;

  CcConfig config_;
  std::uint64_t cwnd_;
  std::uint64_t ssthresh_;
  double w_max_segments_ = 0.0;   ///< window before the last reduction
  double k_seconds_ = 0.0;        ///< time to regrow to w_max
  TimePoint epoch_start_;         ///< start of the current cubic epoch
  bool epoch_valid_ = false;
  Duration min_rtt_ = Duration::infinite();  ///< no sample yet
  // HyStart round bookkeeping: a "round" is one cwnd of acknowledged bytes.
  // The delay check uses the min of the first samples of a round — the
  // *standing* queue left by the previous round — so in-round transients
  // do not cause premature slow-start exit.
  std::uint64_t acked_total_ = 0;
  std::uint64_t round_end_bytes_ = 0;
  int round_samples_ = 0;
  Duration round_min_rtt_ = Duration::infinite();
  // TCP-friendly (Reno) estimate, RFC 8312 §4.2.
  double w_est_segments_ = 0.0;
};

/// NewReno (RFC 5681/6582): AIMD with slow start.
class NewReno final : public CongestionController {
 public:
  explicit NewReno(CcConfig config = {});

  void on_ack(std::uint64_t acked_bytes, Duration rtt, TimePoint now) override;
  void on_congestion_event(TimePoint now) override;
  void on_rto(TimePoint now) override;

  [[nodiscard]] std::uint64_t cwnd_bytes() const override { return cwnd_; }
  [[nodiscard]] std::uint64_t ssthresh_bytes() const override { return ssthresh_; }
  [[nodiscard]] bool in_slow_start() const override { return cwnd_ < ssthresh_; }
  [[nodiscard]] std::string name() const override { return "newreno"; }

 private:
  CcConfig config_;
  std::uint64_t cwnd_;
  std::uint64_t ssthresh_;
  std::uint64_t ack_accumulator_ = 0;  ///< bytes acked since last cwnd bump (CA)
};

/// RFC 6298 smoothed RTT and RTT variance (alpha 1/8, beta 1/4), shared by
/// TCP's RTO and QUIC's loss timers. Zero `srtt` means no sample yet.
struct RttEstimator {
  Duration srtt = Duration::zero();
  Duration rttvar = Duration::zero();

  void update(Duration sample) {
    if (srtt.is_zero()) {
      srtt = sample;
      rttvar = sample / 2;
    } else {
      const Duration delta = (srtt > sample) ? (srtt - sample) : (sample - srtt);
      rttvar = rttvar * 0.75 + delta * 0.25;
      srtt = srtt * 0.875 + sample * 0.125;
    }
  }
};

enum class CcAlgorithm { kCubic, kNewReno, kBbr };

[[nodiscard]] std::unique_ptr<CongestionController> make_controller(CcAlgorithm algo,
                                                                    CcConfig config = {});

}  // namespace slp::cc
