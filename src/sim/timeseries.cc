/**
 * @file
 * Time-series sampler implementation.
 */

#include "sim/timeseries.hh"

#include "sim/event_queue.hh"

namespace ptm
{

std::uint64_t
TimeseriesCapture::delta(const TimeseriesInterval &iv,
                         const std::string &path) const
{
    for (const auto &c : iv.counters)
        if (counterNames[c.ref] == path)
            return c.delta;
    return 0;
}

TimeseriesSampler::TimeseriesSampler(const TimeseriesParams &params,
                                     const StatRegistry &reg,
                                     const EventQueue &eq)
    : params_(params), reg_(reg), eq_(eq)
{
    capture_.enabled = params_.capture;
    capture_.interval = params_.interval;
}

void
TimeseriesSampler::start()
{
    // Freeze the registry walk: every Counter and Distribution, in
    // registration order, addressed by "group.stat" paths.
    for (const auto &g : reg_.groups()) {
        for (const StatRef &s : g->stats()) {
            std::string path = g->name() + "." + s.name;
            if (s.kind == StatKind::Counter && s.counter) {
                counters_.push_back(s.counter);
                capture_.counterNames.push_back(std::move(path));
            } else if (s.kind == StatKind::Distribution &&
                       s.distribution) {
                dists_.push_back(s.distribution);
                capture_.distNames.push_back(std::move(path));
            }
        }
    }
    prev_counter_.assign(counters_.size(), 0);
    prev_dist_samples_.assign(dists_.size(), 0);
    prev_dist_sum_.assign(dists_.size(), 0.0);
    for (std::size_t i = 0; i < counters_.size(); ++i)
        prev_counter_[i] = counters_[i]->value();
    for (std::size_t i = 0; i < dists_.size(); ++i) {
        prev_dist_samples_[i] = dists_[i]->samples();
        prev_dist_sum_[i] = dists_[i]->sum();
    }
    last_tick_ = eq_.curTick();
    last_events_ = eq_.executedEvents();
    last_wall_ = std::chrono::steady_clock::now();
}

TimeseriesInterval
TimeseriesSampler::takeSample(bool final_flush)
{
    TimeseriesInterval iv;
    iv.n = next_n_++;
    iv.t0 = last_tick_;
    iv.t1 = eq_.curTick();
    iv.final_ = final_flush;

    auto now = std::chrono::steady_clock::now();
    iv.wallSeconds =
        std::chrono::duration<double>(now - last_wall_).count();
    std::uint64_t events = eq_.executedEvents();
    iv.events = events - last_events_;

    for (std::size_t i = 0; i < counters_.size(); ++i) {
        std::uint64_t v = counters_[i]->value();
        if (v != prev_counter_[i]) {
            iv.counters.push_back({i, v - prev_counter_[i]});
            prev_counter_[i] = v;
        }
    }
    for (std::size_t i = 0; i < dists_.size(); ++i) {
        std::uint64_t n = dists_[i]->samples();
        double sum = dists_[i]->sum();
        if (n != prev_dist_samples_[i]) {
            iv.dists.push_back(
                {i, n - prev_dist_samples_[i], sum - prev_dist_sum_[i]});
            prev_dist_samples_[i] = n;
            prev_dist_sum_[i] = sum;
        }
    }

    last_tick_ = iv.t1;
    last_events_ = events;
    last_wall_ = now;

    if (params_.capture)
        capture_.intervals.push_back(iv);
    return iv;
}

} // namespace ptm
