// packet.hpp — the unit of work flowing through the simulator.
//
// Packets are plain values: a small header struct plus a shared, immutable
// transport payload. Copying a packet (to enqueue it, quote it in an ICMP
// error, or tap it into a capture) is cheap and has no ownership pitfalls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "sim/address.hpp"
#include "sim/packet_pool.hpp"
#include "util/small_vector.hpp"
#include "util/units.hpp"

namespace slp::sim {

enum class Protocol : std::uint8_t { kIcmp, kTcp, kUdp };

[[nodiscard]] std::string to_string(Protocol p);

/// (protocol, port): the key of per-port tables (Host handlers, NAT
/// external mappings), with a hash for their per-packet lookups.
using ProtoPort = std::pair<Protocol, std::uint16_t>;
struct ProtoPortHash {
  std::size_t operator()(const ProtoPort& k) const noexcept {
    return (std::size_t{static_cast<std::uint8_t>(k.first)} << 16) | k.second;
  }
};

enum class IcmpType : std::uint8_t {
  kEchoRequest,
  kEchoReply,
  kTimeExceeded,
  kDestUnreachable,
};

struct Packet;

/// ICMP header. Error messages (time-exceeded, unreachable) quote the
/// offending packet as observed at the reporting hop — this is what Tracebox
/// diffs to reveal middlebox rewrites.
struct IcmpHeader {
  IcmpType type = IcmpType::kEchoRequest;
  std::uint16_t id = 0;
  std::uint16_t seq = 0;
  std::shared_ptr<const Packet> quoted;  ///< only for error types
};

/// TCP header as observed on the wire (the parts middleboxes touch).
struct TcpHeader {
  // 64-bit sequence space: the model never wraps (campaign transfers stay
  // far below 2^64 bytes), which removes wraparound edge cases the paper's
  // questions do not touch.
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  bool syn = false;
  bool ack_flag = false;
  bool fin = false;
  bool rst = false;
  std::uint32_t window = 0;
  std::uint16_t mss_option = 0;  ///< 0 when the option is absent
  /// Stream payload carried by this segment. Model metadata: real TCP
  /// derives this from the IP length; keeping it explicit avoids ambiguity
  /// with option-bearing pure ACKs.
  std::uint32_t payload_bytes = 0;
  /// SACK blocks (left edge inclusive, right edge exclusive). Almost always
  /// ≤ 4 blocks, and every pure-ACK copy duplicates them — inline storage
  /// keeps that copy off the heap.
  util::SmallVector<std::pair<std::uint64_t, std::uint64_t>, 4> sack;
};

struct Packet {
  std::uint64_t uid = 0;  ///< globally unique, assigned by Simulator
  Ipv4Addr src = 0;
  Ipv4Addr dst = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Protocol proto = Protocol::kUdp;
  std::uint8_t ttl = 64;
  /// Application/content marker (stand-in for what DPI classifies from SNI
  /// or traffic shape). 0 = unclassified. Wehe's randomized replays differ
  /// from originals exactly here.
  std::uint8_t dscp = 0;
  std::uint32_t size_bytes = 0;       ///< wire size including headers
  std::uint16_t checksum = 0;         ///< transport checksum (NATs rewrite it)
  std::optional<IcmpHeader> icmp;
  std::optional<TcpHeader> tcp;
  /// Transport-defined payload (e.g. a QUIC packet record). Immutable and
  /// shared: middleboxes cannot inspect it, mirroring QUIC's encryption.
  /// Pool-backed: copying a packet bumps a slab refcount instead of touching
  /// the heap (see packet_pool.hpp).
  PayloadRef payload;
  /// Latency-provenance tag (a pooled sim::ProvenanceTag), attached at the
  /// origin when the Simulator's provenance knob is on and carried through
  /// copies/forwards for free (slab refcount bump). Null when disabled.
  PayloadRef prov;
  std::uint64_t flow_id = 0;          ///< grouping key for traces/statistics
  TimePoint first_sent;               ///< stamped by the origin host
};

/// Model "transport checksum": a hash over the fields a real checksum covers.
/// NATs must recompute it after rewriting, which is exactly the alteration
/// the paper's Tracebox run observed on Starlink.
[[nodiscard]] std::uint16_t transport_checksum(const Packet& pkt);

/// Stamps a fresh checksum on the packet (call after any header rewrite).
void refresh_checksum(Packet& pkt);

/// Builds the ICMP echo reply to `request`: back to its source, same size,
/// id and seq. The source address and checksum are left to the replier.
[[nodiscard]] Packet make_echo_reply(const Packet& request);

/// Builds an ICMP time-exceeded error addressed to `offender.src`, quoting
/// the offender as seen at the reporting hop.
[[nodiscard]] Packet make_time_exceeded(Ipv4Addr reporter, const Packet& offender);

/// Builds an ICMP destination-unreachable error.
[[nodiscard]] Packet make_dest_unreachable(Ipv4Addr reporter, const Packet& offender);

[[nodiscard]] std::string to_string(const Packet& pkt);

}  // namespace slp::sim
