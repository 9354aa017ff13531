/**
 * @file
 * Distribution / StatGroup / StatRegistry / StatSnapshot implementation.
 */

#include "sim/stats.hh"

#include <cmath>

#include "sim/logging.hh"

namespace ptm
{

Distribution::Distribution(double lo, double hi, unsigned buckets)
    : lo_(lo), width_((hi - lo) / double(buckets ? buckets : 1)),
      counts_(buckets ? buckets : 1, 0)
{
    panic_if(hi <= lo, "Distribution bounds [%f, %f) are empty", lo, hi);
    panic_if(buckets == 0, "Distribution needs at least one bucket");
}

void
Distribution::sample(double v, std::uint64_t n)
{
    if (!n)
        return;
    if (!samples_) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    samples_ += n;
    sum_ += v * double(n);

    if (v < lo_) {
        underflow_ += n;
    } else {
        auto i = std::size_t((v - lo_) / width_);
        if (i >= counts_.size())
            overflow_ += n;
        else
            counts_[i] += n;
    }
}

void
Distribution::reset()
{
    for (auto &c : counts_)
        c = 0;
    underflow_ = overflow_ = samples_ = 0;
    sum_ = min_ = max_ = 0;
}

namespace
{

/**
 * Shared percentile estimate over a fixed-bucket histogram. The rank
 * is located in the cumulative counts and interpolated linearly
 * within its bucket; ranks landing in the underflow (overflow) bin
 * resolve to the exact min (max), and the result is clamped to
 * [min, max] so a sparse bucket cannot extrapolate past the data.
 */
double
histPercentile(double p, const std::vector<std::uint64_t> &counts,
               std::uint64_t underflow, std::uint64_t samples,
               double lo, double width, double mn, double mx)
{
    if (!samples)
        return 0.0;
    if (p <= 0.0)
        return mn;
    if (p >= 100.0)
        return mx;
    double rank = std::ceil(p / 100.0 * double(samples));
    if (rank < 1.0)
        rank = 1.0;
    if (rank <= double(underflow))
        return mn;
    double cum = double(underflow);
    for (std::size_t i = 0; i < counts.size(); ++i) {
        double c = double(counts[i]);
        if (c > 0 && rank <= cum + c) {
            double frac = (rank - cum) / c;
            double v = lo + (double(i) + frac) * width;
            return std::min(std::max(v, mn), mx);
        }
        cum += c;
    }
    return mx; // rank fell in the overflow bin
}

} // namespace

double
Distribution::percentile(double p) const
{
    return histPercentile(p, counts_, underflow_, samples_, lo_,
                          width_, min(), max());
}

double
DistSnapshot::percentile(double p) const
{
    return histPercentile(p, counts, underflow, samples, lo, width,
                          min, max);
}

const char *
statKindName(StatKind k)
{
    switch (k) {
      case StatKind::Counter: return "counter";
      case StatKind::Average: return "average";
      case StatKind::TimeWeighted: return "time_weighted";
      case StatKind::Distribution: return "distribution";
      case StatKind::Scalar: return "scalar";
    }
    return "unknown";
}

double
StatRef::numeric() const
{
    switch (kind) {
      case StatKind::Counter:
        return double(counter->value());
      case StatKind::Average:
        return average->mean();
      case StatKind::TimeWeighted:
        return timeWeighted->mean();
      case StatKind::Distribution:
        return distribution->mean();
      case StatKind::Scalar:
        return scalar();
    }
    return 0.0;
}

void
StatGroup::addRef(StatRef ref)
{
    auto [it, inserted] = index_.emplace(ref.name, stats_.size());
    (void)it;
    panic_if(!inserted, "duplicate stat '%s.%s' registered",
             name_.c_str(), ref.name.c_str());
    stats_.push_back(std::move(ref));
}

void
StatGroup::addCounter(const std::string &stat_name, const Counter *c,
                      const std::string &desc)
{
    StatRef r;
    r.name = stat_name;
    r.desc = desc;
    r.kind = StatKind::Counter;
    r.counter = c;
    addRef(std::move(r));
}

void
StatGroup::addAverage(const std::string &stat_name, const Average *a,
                      const std::string &desc)
{
    StatRef r;
    r.name = stat_name;
    r.desc = desc;
    r.kind = StatKind::Average;
    r.average = a;
    addRef(std::move(r));
}

void
StatGroup::addTimeWeighted(const std::string &stat_name,
                           const TimeWeighted *t,
                           const std::string &desc)
{
    StatRef r;
    r.name = stat_name;
    r.desc = desc;
    r.kind = StatKind::TimeWeighted;
    r.timeWeighted = t;
    addRef(std::move(r));
}

void
StatGroup::addDistribution(const std::string &stat_name,
                           const Distribution *d,
                           const std::string &desc)
{
    StatRef r;
    r.name = stat_name;
    r.desc = desc;
    r.kind = StatKind::Distribution;
    r.distribution = d;
    addRef(std::move(r));
}

void
StatGroup::addScalar(const std::string &stat_name,
                     std::function<double()> fn,
                     const std::string &desc)
{
    StatRef r;
    r.name = stat_name;
    r.desc = desc;
    r.kind = StatKind::Scalar;
    r.scalar = std::move(fn);
    addRef(std::move(r));
}

const StatRef *
StatGroup::find(const std::string &stat_name) const
{
    auto it = index_.find(stat_name);
    return it == index_.end() ? nullptr : &stats_[it->second];
}

std::uint64_t
StatGroup::counterValue(const std::string &stat_name) const
{
    const StatRef *s = find(stat_name);
    if (!s || s->kind != StatKind::Counter)
        return 0;
    return s->counter->value();
}

StatGroup &
StatRegistry::addGroup(const std::string &name)
{
    auto [it, inserted] = index_.emplace(name, groups_.size());
    (void)it;
    panic_if(!inserted, "duplicate stat group '%s' registered",
             name.c_str());
    groups_.push_back(std::make_unique<StatGroup>(name));
    return *groups_.back();
}

const StatGroup *
StatRegistry::find(const std::string &name) const
{
    auto it = index_.find(name);
    return it == index_.end() ? nullptr : groups_[it->second].get();
}

std::uint64_t
StatRegistry::counterValue(const std::string &path) const
{
    auto dot = path.find('.');
    if (dot == std::string::npos)
        return 0;
    const StatGroup *g = find(path.substr(0, dot));
    return g ? g->counterValue(path.substr(dot + 1)) : 0;
}

StatSnapshot::StatSnapshot(const StatRegistry &reg)
{
    for (const auto &g : reg.groups()) {
        Group group;
        group.name = g->name();
        for (const StatRef &s : g->stats()) {
            StatValue v;
            v.kind = s.kind;
            switch (s.kind) {
              case StatKind::Counter:
                v.count = s.counter->value();
                v.value = double(v.count);
                break;
              case StatKind::Average:
                v.count = s.average->samples();
                v.value = s.average->mean();
                break;
              case StatKind::TimeWeighted:
                v.value = s.timeWeighted->mean();
                break;
              case StatKind::Scalar:
                v.value = s.scalar();
                // Counter-like reads of integral gauges must work too.
                v.count = v.value > 0 ? std::uint64_t(v.value) : 0;
                break;
              case StatKind::Distribution: {
                const Distribution &d = *s.distribution;
                v.count = d.samples();
                v.value = d.mean();
                v.dist.lo = d.bucketLo();
                v.dist.width = d.bucketWidth();
                v.dist.counts.resize(d.buckets());
                for (unsigned i = 0; i < d.buckets(); ++i)
                    v.dist.counts[i] = d.count(i);
                v.dist.underflow = d.underflow();
                v.dist.overflow = d.overflow();
                v.dist.samples = d.samples();
                v.dist.sum = d.sum();
                v.dist.min = d.min();
                v.dist.max = d.max();
                break;
              }
            }
            index_[group.name + "." + s.name] = v;
            group.stats.emplace_back(s.name, std::move(v));
        }
        groups_.push_back(std::move(group));
    }
}

const StatValue *
StatSnapshot::find(const std::string &path) const
{
    auto it = index_.find(path);
    return it == index_.end() ? nullptr : &it->second;
}

std::uint64_t
StatSnapshot::counter(const std::string &path) const
{
    const StatValue *v = find(path);
    return v ? v->count : 0;
}

double
StatSnapshot::value(const std::string &path) const
{
    const StatValue *v = find(path);
    return v ? v->value : 0.0;
}

} // namespace ptm
