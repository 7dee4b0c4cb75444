#include "sim/simulator.hpp"

#include <cassert>
#include <chrono>
#include <iostream>
#include <sstream>

#include "util/log.hpp"

namespace slp::sim {

Simulator::Simulator(std::uint64_t seed) : rng_{seed} {
  // Log records from this thread carry this simulation's clock ("[t=...s]")
  // while it is the thread's live simulator. Sweep cells run one Testbed per
  // worker at a time, so last-registered-wins is exactly right.
  Logger::set_time_source(this, [](const void* owner) {
    return static_cast<const Simulator*>(owner)->now().ns();
  });
}

Simulator::~Simulator() { Logger::clear_time_source(this); }

EventId Simulator::schedule_at(TimePoint at, util::InlineFunction fn) {
  assert(at >= now_ && "cannot schedule into the past");
  return queue_.schedule(at, std::move(fn));
}

void Simulator::enable_obs(const obs::Options& opts) {
  recorder_ = std::make_unique<obs::Recorder>(opts);
  sampler_ = recorder_->sampler();
  provenance_ = opts.provenance;
  if (opts.profile) profile_ = std::make_unique<obs::WallProfile>();
}

obs::Snapshot Simulator::take_obs() {
  if (recorder_ == nullptr) {
    obs::Snapshot empty;
    empty.cells = 1;
    return empty;
  }
  if (recorder_->options().metrics) {
    recorder_->registry().counter("sim.events_processed").add(events_processed_);
  }
  // One "wall-profile " prefixed line each, so bench/perf_report.py
  // --profile can scrape it from bench output without parsing the exports.
  if (profile_ != nullptr) {
    std::istringstream lines{profile_->report()};
    for (std::string line; std::getline(lines, line);) {
      if (!line.empty()) std::cerr << "wall-profile " << line << "\n";
    }
  }
  return recorder_->take_snapshot();
}

namespace {

/// Installs this simulator's WallProfile as the thread's current one for the
/// duration of a run loop, so SectionTimers in subsystem code attribute to it.
class ProfileScope {
 public:
  explicit ProfileScope(obs::WallProfile* p)
      : prev_{obs::WallProfile::exchange_current(p)} {}
  ~ProfileScope() { obs::WallProfile::exchange_current(prev_); }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  obs::WallProfile* prev_;
};

}  // namespace

void Simulator::sample_up_to(TimePoint at) {
  // A grid point t is sampled when the clock first moves past it, so the
  // sample sees the state after every event at t has run — the same answer
  // regardless of how events at t are batched.
  if (sampler_->next_due() < at) {
    sampler_->sample_until(at - Duration::nanos(1));
  }
}

void Simulator::run_profiled(TimePoint deadline) {
  using Clock = std::chrono::steady_clock;
  const ProfileScope scope{profile_.get()};
  while (!queue_.empty() && !stopped_ && queue_.next_time() <= deadline) {
    auto [at, fn] = queue_.pop();
    if (sampler_ != nullptr) sample_up_to(at);
    now_ = at;
    ++events_processed_;
    const auto t0 = Clock::now();
    fn();
    profile_->record_callback_ns(static_cast<std::uint64_t>((Clock::now() - t0).count()));
  }
}

void Simulator::run() { run_until(TimePoint::infinite()); }

void Simulator::run_until(TimePoint deadline) {
  stopped_ = false;
  if (profile_) {
    run_profiled(deadline);
  } else {
    while (!queue_.empty() && !stopped_ && queue_.next_time() <= deadline) {
      auto [at, fn] = queue_.pop();
      if (sampler_ != nullptr) sample_up_to(at);
      now_ = at;
      ++events_processed_;
      fn();
    }
  }
  // run() has no deadline: its clock stays on the last event.
  if (!stopped_ && now_ < deadline && !deadline.is_infinite()) {
    if (sampler_ != nullptr) sampler_->sample_until(deadline);
    now_ = deadline;
  }
}

void Timer::arm(Duration delay, util::InlineFunction fn) {
  arm_at(sim_->now() + delay, std::move(fn));
}

void Timer::arm_at(TimePoint at, util::InlineFunction fn) {
  cancel();
  armed_ = true;
  expiry_ = at;
  fn_ = std::move(fn);
  id_ = sim_->schedule_at(at, [this] { fire(); });
}

void Timer::fire() {
  armed_ = false;
  // Move out first so the callback may freely re-arm this timer.
  util::InlineFunction fn = std::move(fn_);
  fn();
}

void Timer::cancel() {
  if (armed_) {
    sim_->cancel(id_);
    armed_ = false;
    fn_.reset();
  }
}

}  // namespace slp::sim
