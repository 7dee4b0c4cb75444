// obstruction.hpp — heading-relative sky blockage for a moving terminal.
//
// A mask is a set of azimuth sectors, each raising the minimum usable
// elevation inside it. Sectors are *heading-relative* (0° = direction of
// travel, clockwise), so "tree line along the right shoulder" stays on the
// right as the road curves. The mask composes with the geometric
// terminal_min_elevation_deg gate in leo::access by maximum: visibility
// pre-filters at the dish's mask angle, and the obstruction only ever
// removes more sky. A tunnel is the degenerate full-sky mask (everything
// blocked to the zenith); mobile_terminal.hpp maps it to a loss gate on the
// satellite link.
#pragma once

#include <vector>

namespace slp::mobility {

class ObstructionMask {
 public:
  struct Sector {
    /// Heading-relative azimuth range, degrees clockwise, wrapping at 360
    /// (from 300 to 60 spans the 120° ahead of the vehicle).
    double az_from_deg = 0.0;
    double az_to_deg = 360.0;
    /// Sky below this elevation is blocked inside the sector.
    double min_elevation_deg = 90.0;
  };

  ObstructionMask() = default;  // open sky
  explicit ObstructionMask(std::vector<Sector> sectors);

  /// Full gate: every azimuth blocked to the zenith.
  [[nodiscard]] static ObstructionMask tunnel();
  /// Single-sector convenience (tree lines, urban canyons).
  [[nodiscard]] static ObstructionMask sector(double az_from_deg, double az_to_deg,
                                              double min_elevation_deg);

  /// Minimum usable elevation toward absolute azimuth `az_deg` for a vehicle
  /// on `heading_deg` (max over matching sectors; 0 in open sky).
  [[nodiscard]] double min_elevation_deg(double az_deg, double heading_deg) const;

  /// True when a satellite at (az, el) is blocked.
  [[nodiscard]] bool blocks(double az_deg, double elevation_deg, double heading_deg) const;

  /// True when the whole sky is gated (a single wrap-around sector at >= 90°
  /// elevation — how tunnel() represents itself).
  [[nodiscard]] bool full_gate() const { return full_gate_; }
  [[nodiscard]] bool empty() const { return sectors_.empty(); }
  [[nodiscard]] const std::vector<Sector>& sectors() const { return sectors_; }

 private:
  std::vector<Sector> sectors_;
  bool full_gate_ = false;
};

}  // namespace slp::mobility
