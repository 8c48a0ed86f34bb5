#include "workload/generator.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mca::workload {
task_source random_pool_source(const tasks::task_pool& pool) {
  return [&pool](util::rng& rng) { return pool.random_request(rng); };
}

task_source heavy_pool_source(const tasks::task_pool& pool) {
  return [&pool](util::rng& rng) {
    auto request = pool.random_request(rng);
    request.size = request.algorithm->max_size();
    return request;
  };
}

task_source static_source(tasks::task_request request) {
  if (request.algorithm == nullptr) {
    throw std::invalid_argument{"static_source: null task"};
  }
  return [request](util::rng&) { return request; };
}

interarrival_fn fixed_interarrival(util::time_ms gap) {
  if (gap <= 0.0) throw std::invalid_argument{"fixed_interarrival: gap <= 0"};
  return [gap](util::rng&) { return gap; };
}

interarrival_fn exponential_interarrival(double rate_hz) {
  if (rate_hz <= 0.0) {
    throw std::invalid_argument{"exponential_interarrival: rate <= 0"};
  }
  return [rate_hz](util::rng& rng) {
    return rng.exponential(rate_hz / 1000.0);  // rate per ms
  };
}

interarrival_fn empirical_interarrival(
    std::shared_ptr<const util::empirical_distribution> distribution) {
  if (distribution == nullptr) {
    throw std::invalid_argument{"empirical_interarrival: null distribution"};
  }
  return [distribution = std::move(distribution)](util::rng& rng) {
    return distribution->sample(rng);
  };
}

concurrent_generator::concurrent_generator(sim::simulation& sim,
                                           task_source source,
                                           request_sink sink,
                                           concurrent_config config,
                                           util::rng rng)
    : sim_{sim},
      source_{std::move(source)},
      sink_{std::move(sink)},
      config_{config},
      rng_{rng} {
  if (config.users == 0) throw std::invalid_argument{"concurrent: 0 users"};
  if (config.rounds == 0) throw std::invalid_argument{"concurrent: 0 rounds"};
  if (!source_ || !sink_) {
    throw std::invalid_argument{"concurrent: missing source/sink"};
  }
  process_ = std::make_unique<sim::periodic_process>(
      sim_, sim_.now(), config_.gap, [this](std::uint64_t) {
        emit_round();
        return rounds_done_ < config_.rounds;
      });
}

void concurrent_generator::emit_round() {
  for (std::size_t u = 0; u < config_.users; ++u) {
    offload_request request;
    request.id = ++emitted_;
    request.user = config_.first_user + static_cast<user_id>(u);
    request.work = source_(rng_);
    request.created_at = sim_.now();
    sink_(request);
  }
  ++rounds_done_;
}

interarrival_generator::interarrival_generator(sim::simulation& sim,
                                               task_source source,
                                               request_sink sink,
                                               interarrival_fn gaps,
                                               interarrival_config config,
                                               util::rng rng)
    : sim_{sim},
      source_{std::move(source)},
      sink_{std::move(sink)},
      gaps_{std::move(gaps)},
      config_{config},
      rng_{rng} {
  if (config.devices == 0) throw std::invalid_argument{"interarrival: 0 devices"};
  if (!source_ || !sink_ || !gaps_) {
    throw std::invalid_argument{"interarrival: missing callback"};
  }
  const util::time_ms start = sim_.now();
  for (std::size_t d = 0; d < config_.devices; ++d) {
    const auto user = config_.first_user + static_cast<user_id>(d);
    // Desynchronize devices with an initial fractional gap.
    sim_.schedule_at(start + gaps_(rng_) * rng_.uniform(),
                     [this, user] { schedule_next(user); });
  }
  deadline_ = start + config_.active_duration;
}

void interarrival_generator::schedule_next(user_id user) {
  if (sim_.now() >= deadline_) return;
  offload_request request;
  request.id = ++emitted_;
  request.user = user;
  request.work = source_(rng_);
  request.created_at = sim_.now();
  sink_(request);
  sim_.schedule_after(gaps_(rng_), [this, user] { schedule_next(user); });
}

replay_generator::replay_generator(sim::simulation& sim, task_source source,
                                   request_sink sink,
                                   std::vector<replay_event> events,
                                   util::rng rng)
    : sim_{sim},
      source_{std::move(source)},
      sink_{std::move(sink)},
      rng_{rng},
      events_{std::move(events)},
      total_{events_.size()} {
  if (!source_ || !sink_) {
    throw std::invalid_argument{"replay: missing source/sink"};
  }
  // Traces carry same-millisecond bursts (a round of concurrent users, a
  // log with coarse timestamps); schedule one wake-up per distinct
  // timestamp and emit the whole burst from it, not one event per entry.
  // The stable sort replays entries in (time, original-order) order —
  // exactly the order the event loop's FIFO tie-break produced when every
  // entry was its own event, so rng draw order is unchanged.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const replay_event& a, const replay_event& b) {
                     return a.at < b.at;
                   });
  std::size_t first = 0;
  while (first < events_.size()) {
    std::size_t last = first + 1;
    while (last < events_.size() && events_[last].at == events_[first].at) {
      ++last;
    }
    sim_.schedule_at(events_[first].at,
                     [this, first, last] { emit_range(first, last); });
    first = last;
  }
}

void replay_generator::emit_range(std::size_t first, std::size_t last) {
  for (std::size_t e = first; e < last; ++e) {
    offload_request request;
    request.id = ++emitted_;
    request.user = events_[e].user;
    request.work = source_(rng_);
    request.created_at = sim_.now();
    sink_(request);
  }
}

rate_doubling_generator::rate_doubling_generator(sim::simulation& sim,
                                                 task_source source,
                                                 request_sink sink,
                                                 rate_doubling_config config,
                                                 util::rng rng)
    : sim_{sim},
      source_{std::move(source)},
      sink_{std::move(sink)},
      config_{config},
      rng_{rng},
      rate_hz_{config.initial_hz},
      phase_end_{sim.now() + config.phase_length} {
  if (config.initial_hz <= 0.0 || config.final_hz < config.initial_hz) {
    throw std::invalid_argument{"rate_doubling: bad rate range"};
  }
  if (config.phase_length <= 0.0) {
    throw std::invalid_argument{"rate_doubling: phase_length <= 0"};
  }
  if (!source_ || !sink_) {
    throw std::invalid_argument{"rate_doubling: missing source/sink"};
  }
  schedule_arrival();
}

void rate_doubling_generator::schedule_arrival() {
  const double gap_ms = rng_.exponential(rate_hz_ / 1000.0);
  sim_.schedule_after(gap_ms, [this] {
    while (sim_.now() >= phase_end_) {
      rate_hz_ *= 2.0;
      phase_end_ += config_.phase_length;
      if (rate_hz_ > config_.final_hz) return;  // schedule exhausted
    }
    offload_request request;
    request.id = ++emitted_;
    request.user = next_user_;
    next_user_ = (next_user_ + 1) %
                 static_cast<user_id>(config_.user_population);
    request.work = source_(rng_);
    request.created_at = sim_.now();
    sink_(request);
    schedule_arrival();
  });
}

}  // namespace mca::workload
