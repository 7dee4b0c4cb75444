#include "obs/sampler.hpp"

#include <algorithm>
#include <utility>

namespace slp::obs {

std::uint64_t Sampler::add_probe(std::string name, Probe probe) {
  Slot slot;
  slot.id = next_id_++;
  slot.name = std::move(name);
  slot.probe = std::move(probe);
  slots_.push_back(std::move(slot));
  return slots_.back().id;
}

void Sampler::remove_probe(std::uint64_t id) {
  for (auto& slot : slots_) {
    if (slot.id == id) {
      slot.probe = nullptr;
      return;
    }
  }
}

void Sampler::sample_until(TimePoint up_to) {
  while (next_ <= up_to) {
    const std::int64_t t = next_.ns();
    std::size_t longest = 0;
    for (auto& slot : slots_) {
      if (slot.probe) {
        const double v = slot.probe(next_);
        slot.points.push_back({t, v});
        if (observer_) observer_(slot.name, t, v);
      }
      longest = std::max(longest, slot.points.size());
    }
    next_ = next_ + Duration::nanos(interval_.ns() * static_cast<std::int64_t>(stride_));
    if (max_points_ != 0 && longest >= max_points_) decimate();
  }
}

void Sampler::decimate() {
  // Keep every other retained point (series are stride-uniform, so this
  // leaves a uniform grid at double the spacing); removed probes' frozen
  // series thin too, which is what bounds their memory.
  for (auto& slot : slots_) {
    auto& p = slot.points;
    for (std::size_t i = 1, j = 2; j < p.size(); ++i, j += 2) p[i] = p[j];
    if (!p.empty()) p.resize((p.size() + 1) / 2);
  }
  stride_ *= 2;
}

std::vector<Series> Sampler::take() {
  std::vector<Series> out;
  out.reserve(slots_.size());
  for (auto& slot : slots_) {
    Series s;
    s.name = std::move(slot.name);
    s.points = std::move(slot.points);
    out.push_back(std::move(s));
  }
  slots_.clear();
  return out;
}

}  // namespace slp::obs
