#include "sim/link.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/profile.hpp"
#include "sim/provenance.hpp"

namespace slp::sim {

void Interface::send(Packet&& pkt) {
  assert(attached() && "interface not wired to a link");
  link_->enqueue(endpoint_, std::move(pkt));
}

Interface* Interface::peer() const {
  if (link_ == nullptr) return nullptr;
  return link_->dir_[endpoint_].to;
}

Interface& Node::add_interface(Ipv4Addr addr) {
  interfaces_.push_back(std::make_unique<Interface>(*this, addr));
  return *interfaces_.back();
}

Link::Link(Simulator& sim, Interface& a, Interface& b, Config config) : sim_{&sim} {
  assert(!a.attached() && !b.attached());
  a.link_ = this;
  a.endpoint_ = 0;
  b.link_ = this;
  b.endpoint_ = 1;
  dir_[0].config = std::move(config.a_to_b);
  dir_[0].to = &b;
  dir_[1].config = std::move(config.b_to_a);
  dir_[1].to = &a;
  obs_name_ = config.name.empty() ? "other" : config.name;
  traced_ = !config.name.empty();
  unbatched_ = config.unbatched;
  init_obs();
  update_fast_eligibility(0);
  update_fast_eligibility(1);
}

Link::~Link() {
  auto* rec = sim_->obs();
  if (rec == nullptr || rec->sampler() == nullptr) return;
  for (auto& d : dir_) {
    if (d.obs.probe_id != 0) rec->sampler()->remove_probe(d.obs.probe_id);
  }
}

void Link::init_obs() {
  auto* rec = sim_->obs();
  if (rec == nullptr) return;
  static const char* kDirTag[2] = {"ab", "ba"};
  for (int i = 0; i < 2; ++i) {
    Direction& d = dir_[i];
    if (rec->options().metrics) {
      const std::string prefix = "link." + obs_name_ + "." + kDirTag[i] + ".";
      d.obs.enqueued = rec->registry().counter(prefix + "enqueued_packets");
      d.obs.tx_bytes = rec->registry().counter(prefix + "tx_bytes");
      d.obs.delivered = rec->registry().counter(prefix + "delivered_packets");
      d.obs.dropped_overflow = rec->registry().counter(prefix + "dropped_overflow");
      d.obs.dropped_medium = rec->registry().counter(prefix + "dropped_medium");
      d.obs.dropped_aqm = rec->registry().counter(prefix + "dropped_aqm");
      d.obs.fast_active = rec->registry().gauge(prefix + "fast_path_active");
      materializations_ = rec->registry().counter("sim.ff.materializations");
    }
    if (traced_ && rec->sampler() != nullptr) {
      d.obs.probe_id = rec->sampler()->add_probe(
          "link." + obs_name_ + "." + kDirTag[i] + ".queue_bytes",
          [&d](TimePoint) { return static_cast<double>(d.queued_bytes); });
    }
  }
}

void Link::trace_drop(int direction, const char* kind, const Packet& pkt) {
  auto* rec = sim_->obs();
  if (rec == nullptr || !traced_ || !rec->trace().enabled()) return;
  rec->trace().instant("sim.link", std::string{"drop."} + kind, sim_->now(),
                       "{\"link\":\"" + obs_name_ + "\",\"dir\":" + std::to_string(direction) +
                           ",\"bytes\":" + std::to_string(pkt.size_bytes) + "}");
}

std::size_t Link::queued_bytes(int direction) const {
  const Direction& d = dir_[direction];
  if (!d.fast) return d.queued_bytes;
  // Fast mode prunes the virtual queue lazily; report the pruned view
  // without mutating state.
  std::size_t bytes = d.queued_bytes;
  for (std::size_t i = 0; i < d.pipe.size() && d.pipe[i].first <= sim_->now(); ++i) {
    bytes -= d.pipe[i].second;
  }
  return bytes;
}

void Link::update_fast_eligibility(int direction) {
  Direction& d = dir_[direction];
  d.fast_capable = sim_->fast_forward() && !unbatched_ && !traced_ && !d.config.rate_fn &&
                   !d.config.delay_fn && d.config.loss == nullptr && !d.config.aqm;
  if (d.fast_capable && !d.fast && !d.transmitting && d.queue.empty()) {
    d.fast = true;
    d.busy_until = sim_->now();
    d.obs.fast_active.set(1.0);
    assert(d.pipe.empty());
  }
}

void Link::set_rate(int direction, DataRate rate) {
  materialize(direction);
  dir_[direction].config.rate = rate;
  dir_[direction].config.rate_fn = nullptr;
  update_fast_eligibility(direction);
}

void Link::set_delay(int direction, Duration delay) {
  materialize(direction);
  dir_[direction].config.delay = delay;
  dir_[direction].config.delay_fn = nullptr;
  update_fast_eligibility(direction);
}

void Link::set_loss(int direction, LossModel* loss) {
  materialize(direction);
  dir_[direction].config.loss = loss;
  update_fast_eligibility(direction);
}

void Link::set_delivery_tap(int direction, std::function<void(const Packet&)> tap) {
  dir_[direction].tap = std::move(tap);
}

void Link::enqueue(int direction, Packet&& pkt) {
  Direction& d = dir_[direction];
  d.stats.enqueued_packets++;
  d.obs.enqueued.add();
  if (d.config.aqm) {
    const double fraction =
        static_cast<double>(d.queued_bytes) / static_cast<double>(d.config.queue_capacity_bytes);
    if (d.config.aqm(sim_->now(), pkt, fraction)) {
      d.stats.dropped_aqm++;
      d.obs.dropped_aqm.add();
      trace_drop(direction, "aqm", pkt);
      return;
    }
  }

  if (d.fast) {
    // Analytic serialization: commit the packet's whole timeline now.
    const TimePoint now = sim_->now();
    while (!d.pipe.empty() && d.pipe.front().first <= now) {
      d.queued_bytes -= d.pipe.front().second;
      d.pipe.pop_front();
    }
    const bool busy = d.busy_until > now;
    if (busy && d.queued_bytes + pkt.size_bytes > d.config.queue_capacity_bytes) {
      d.stats.dropped_overflow++;
      d.obs.dropped_overflow.add();
      trace_drop(direction, "overflow", pkt);
      return;  // drop-tail
    }
    const TimePoint tx_start = busy ? d.busy_until : now;
    const TimePoint tx_end = tx_start + d.config.rate.transmission_time(pkt.size_bytes);
    d.busy_until = tx_end;
    if (tx_start > now) {
      d.queued_bytes += pkt.size_bytes;
      d.stats.max_queue_bytes = std::max<std::uint64_t>(d.stats.max_queue_bytes, d.queued_bytes);
      d.pipe.emplace_back(tx_start, pkt.size_bytes);
    }
    push_arrival(direction, Arrival{tx_end + d.config.delay, tx_start, tx_end, std::move(pkt)});
    return;
  }

  if (d.transmitting || !d.queue.empty()) {
    if (d.queued_bytes + pkt.size_bytes > d.config.queue_capacity_bytes) {
      d.stats.dropped_overflow++;
      d.obs.dropped_overflow.add();
      trace_drop(direction, "overflow", pkt);
      return;  // drop-tail
    }
    d.queued_bytes += pkt.size_bytes;
    d.stats.max_queue_bytes = std::max<std::uint64_t>(d.stats.max_queue_bytes, d.queued_bytes);
    d.queue.push_back(std::move(pkt));
    return;
  }
  begin_transmission(direction, std::move(pkt));
}

void Link::begin_transmission(int direction, Packet&& pkt) {
  Direction& d = dir_[direction];
  d.transmitting = true;
  // Provenance: everything since the last watermark was queue wait (zero for
  // a packet that started serializing at enqueue).
  if (ProvenanceTag* tag = prov_tag(pkt)) tag->advance(obs::kQueue, sim_->now());
  const DataRate rate = d.config.rate_fn ? d.config.rate_fn(sim_->now()) : d.config.rate;
  const Duration tx_time = rate.transmission_time(pkt.size_bytes);
  if (unbatched_) {
    sim_->schedule_in(tx_time, [this, direction, pkt = std::move(pkt)]() mutable {
      finish_transmission(direction, std::move(pkt));
    });
    return;
  }
  d.tx_valid = true;
  d.tx_started = sim_->now();
  d.tx_ends = sim_->now() + tx_time;
  d.tx_pkt = std::move(pkt);
  sim_->schedule_at(d.tx_ends, [this, direction] { on_tx_done(direction); });
}

void Link::start_transmission(int direction) {
  Direction& d = dir_[direction];
  assert(!d.queue.empty());
  Packet pkt = std::move(d.queue.front());
  d.queue.pop_front();
  d.queued_bytes -= pkt.size_bytes;
  begin_transmission(direction, std::move(pkt));
}

// Unbatched reference path: identical to the original implementation —
// per-packet completion and delivery events that carry the packet in their
// closures, with tx stats counted at serialization end.
void Link::finish_transmission(int direction, Packet pkt) {
  Direction& d = dir_[direction];
  d.stats.tx_packets++;
  d.stats.tx_bytes += pkt.size_bytes;
  d.obs.tx_bytes.add(pkt.size_bytes);

  // Serialization finished; the next queued packet can start immediately.
  if (!d.queue.empty()) {
    start_transmission(direction);
  } else {
    d.transmitting = false;
  }

  // Medium loss destroys the frame in flight: the sender still paid the
  // serialization time, the receiver simply never sees it.
  if (d.config.loss != nullptr && d.config.loss->should_drop(sim_->now(), pkt)) {
    d.stats.dropped_medium++;
    d.obs.dropped_medium.add();
    trace_drop(direction, "medium", pkt);
    return;
  }

  const Duration delay = d.config.delay_fn ? d.config.delay_fn(sim_->now()) : d.config.delay;
  if (ProvenanceTag* tag = prov_tag(pkt)) {
    tag->advance(obs::kSerialize, sim_->now());
    if (d.config.delay_attribution) {
      d.config.delay_attribution(*tag, delay);
    } else {
      tag->add(obs::kPropagation, delay);
    }
    tag->set_mark(sim_->now() + delay);
  }
  Interface* to = d.to;
  sim_->schedule_in(delay, [this, direction, to, pkt = std::move(pkt)]() mutable {
    Direction& dd = dir_[direction];
    dd.stats.delivered_packets++;
    dd.obs.delivered.add();
    if (dd.tap) dd.tap(pkt);
    to->owner().handle_packet(std::move(pkt), *to);
  });
}

void Link::on_tx_done(int direction) {
  const obs::SectionTimer wall{obs::Section::kLink};
  Direction& d = dir_[direction];
  assert(d.tx_valid);
  Packet pkt = std::move(d.tx_pkt);
  const TimePoint tx_start = d.tx_started;
  const TimePoint tx_end = d.tx_ends;
  d.tx_valid = false;

  // Next queued packet starts serializing immediately; draw order (next
  // packet's rate, then this packet's loss, then its delay) matches the
  // reference path so seeded runs stay identical.
  if (!d.queue.empty()) {
    start_transmission(direction);
  } else {
    d.transmitting = false;
    update_fast_eligibility(direction);  // drained: analytic mode may resume
  }

  if (d.config.loss != nullptr && d.config.loss->should_drop(sim_->now(), pkt)) {
    // The sender paid the serialization time even though the frame died.
    d.stats.tx_packets++;
    d.stats.tx_bytes += pkt.size_bytes;
    d.obs.tx_bytes.add(pkt.size_bytes);
    d.stats.dropped_medium++;
    d.obs.dropped_medium.add();
    trace_drop(direction, "medium", pkt);
    return;
  }

  const Duration delay = d.config.delay_fn ? d.config.delay_fn(sim_->now()) : d.config.delay;
  if (ProvenanceTag* tag = prov_tag(pkt)) {
    // A materialized head entered the serializer without begin_transmission:
    // its watermark is still at enqueue. Catching up to tx_start attributes
    // the virtual-pipe wait to kQueue (a no-op for normal packets, whose
    // watermark already sits at tx_start).
    tag->advance(obs::kQueue, tx_start);
    tag->advance(obs::kSerialize, sim_->now());
    if (d.config.delay_attribution) {
      d.config.delay_attribution(*tag, delay);
    } else {
      tag->add(obs::kPropagation, delay);
    }
    tag->set_mark(sim_->now() + delay);
  }
  push_arrival(direction, Arrival{sim_->now() + delay, tx_start, tx_end, std::move(pkt)});
}

void Link::push_arrival(int direction, Arrival&& arr) {
  Direction& d = dir_[direction];
  const TimePoint due = arr.due;
  // Keep arrivals sorted by due time, stable for equal dues. Dynamic delays
  // can reorder, but the common case appends at the back.
  std::size_t pos = d.arrivals.size();
  while (pos > 0 && d.arrivals[pos - 1].due > due) --pos;
  d.arrivals.insert(pos, std::move(arr));
  if (due < d.delivery_due) arm_delivery(direction, due);
}

void Link::arm_delivery(int direction, TimePoint due) {
  Direction& d = dir_[direction];
  if (!d.delivery_due.is_infinite()) sim_->cancel(d.delivery_event);
  d.delivery_due = due;
  d.delivery_event = sim_->schedule_at(due, [this, direction] { deliver_due(direction); });
}

void Link::deliver_due(int direction) {
  const obs::SectionTimer wall{obs::Section::kLink};
  Direction& d = dir_[direction];
  d.delivery_due = TimePoint::infinite();
  // One firing drains every arrival that is due — back-to-back completions
  // coalesce into a single event-queue entry.
  while (!d.arrivals.empty() && d.arrivals.front().due <= sim_->now()) {
    // Only the packet leaves the ring before the handler runs: a handler may
    // push onto this very ring (zero-delay hairpin) and grow it.
    Arrival& front = d.arrivals.front();
    const TimePoint due = front.due;
    const TimePoint tx_start = front.tx_start;
    const TimePoint tx_end = front.tx_end;
    Packet pkt = std::move(front.pkt);
    d.arrivals.pop_front();
    // Provenance for fast-committed arrivals: the event path stamped the
    // watermark to `due` at serialization end; a watermark that is NOT at
    // `due` means this packet's timeline was committed analytically at
    // enqueue, so synthesize the identical components from the Arrival's
    // exact (tx_start, tx_end, due) schedule. Packets pulled back by
    // materialize() re-ran the event path and are skipped by the guard.
    if (ProvenanceTag* tag = prov_tag(pkt); tag != nullptr && tag->mark != due) {
      tag->advance(obs::kQueue, tx_start);
      tag->add(obs::kSerialize, tx_end - tx_start);
      tag->add(obs::kPropagation, due - tx_end);
      tag->set_mark(due);
    }
    // tx accounting is deferred to delivery so the fast path (which never
    // sees serialization end as an event) produces identical counters at
    // any run cutoff.
    d.stats.tx_packets++;
    d.stats.tx_bytes += pkt.size_bytes;
    d.obs.tx_bytes.add(pkt.size_bytes);
    d.stats.delivered_packets++;
    d.obs.delivered.add();
    if (d.tap) d.tap(pkt);
    Interface* to = d.to;
    to->owner().handle_packet(std::move(pkt), *to);
  }
  if (d.arrivals.empty()) {
    // A handler may have re-armed for an arrival this loop then delivered
    // (zero-delay hairpin); drop the stale event.
    if (!d.delivery_due.is_infinite()) {
      sim_->cancel(d.delivery_event);
      d.delivery_due = TimePoint::infinite();
    }
  } else if (d.delivery_due.is_infinite()) {
    arm_delivery(direction, d.arrivals.front().due);
  }
  // else: an event armed re-entrantly during the loop is already pending;
  // if it fires early for a since-delivered arrival, the drain loop is a
  // no-op and re-arms correctly.
}

void Link::materialize(int direction) {
  Direction& d = dir_[direction];
  if (!d.fast) return;
  const TimePoint now = sim_->now();
  d.fast = false;
  d.obs.fast_active.set(0.0);
  materializations_.add();

  while (!d.pipe.empty() && d.pipe.front().first <= now) {
    d.queued_bytes -= d.pipe.front().second;
    d.pipe.pop_front();
  }
  d.pipe.clear();
  d.busy_until = now;

  // Arrivals are due-sorted and (constant delay) tx_end-sorted: the suffix
  // from `pending` on is still being serialized and comes back;
  // fully-serialized frames keep their committed delivery times (event mode
  // would not re-touch them either).
  const std::size_t count = d.arrivals.size();
  std::size_t pending = count;
  while (pending > 0 && d.arrivals[pending - 1].tx_end > now) --pending;
  if (pending == 0 && !d.delivery_due.is_infinite()) {
    sim_->cancel(d.delivery_event);
    d.delivery_due = TimePoint::infinite();
  }

  if (pending == count) return;
  // The busy period is contiguous, so the head is mid-serialization: it
  // becomes the serializer slot and completes on its original schedule at
  // the old rate; propagation is drawn at completion under the new config,
  // exactly as event mode would.
  Arrival& head = d.arrivals[pending];
  assert(head.tx_start <= now);
  d.transmitting = true;
  d.tx_valid = true;
  d.tx_started = head.tx_start;
  d.tx_ends = head.tx_end;
  d.tx_pkt = std::move(head.pkt);
  sim_->schedule_at(d.tx_ends, [this, direction] { on_tx_done(direction); });
  // The rest had not started serializing; their bytes are already counted
  // in queued_bytes (they sat in the virtual pipe).
  for (std::size_t i = pending + 1; i < count; ++i) {
    d.queue.push_back(std::move(d.arrivals[i].pkt));
  }
  while (d.arrivals.size() > pending) d.arrivals.pop_back();
}

}  // namespace slp::sim
