/**
 * @file
 * Statistics package: self-describing, registry-backed metrics.
 *
 * Components keep natural member objects (Counter, Average,
 * TimeWeighted, Distribution) and register them, under stable names,
 * with the StatGroup that describes the component. All groups of one
 * simulated system live in its StatRegistry, which the harness can
 * enumerate formatter-agnostically: the JSON emitter
 * (harness/stats_io), the time-series sampler and the report tables
 * all render from the same registration.
 *
 * Because the registry only *references* component-owned objects, a
 * StatSnapshot captures every registered value by copy so results can
 * outlive the System that produced them (harness::ExperimentResult).
 *
 * Duplicate registration — two stats with one name in a group, or two
 * groups with one name in a registry — is a hard error (panic), so a
 * refactor cannot silently alias two metrics onto one output line.
 */

#ifndef PTM_SIM_STATS_HH
#define PTM_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ptm
{

/** A named 64-bit event counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &
    operator++()
    {
        ++value_;
        return *this;
    }

    Counter &
    operator+=(std::uint64_t n)
    {
        value_ += n;
        return *this;
    }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Running mean of a stream of samples. */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++n_;
    }

    double mean() const { return n_ ? sum_ / double(n_) : 0.0; }
    std::uint64_t samples() const { return n_; }
    double sum() const { return sum_; }
    void reset() { sum_ = 0; n_ = 0; }

  private:
    double sum_ = 0;
    std::uint64_t n_ = 0;
};

/**
 * A time-weighted average of a piecewise-constant quantity, used e.g.
 * for the "average live shadow pages at any instant" metric of Table 1.
 * Call set() whenever the quantity changes, finish() at end of sim.
 */
class TimeWeighted
{
  public:
    /** Record that the quantity becomes @p value at time @p now. */
    void
    set(std::uint64_t now, double value)
    {
        accumulate(now);
        value_ = value;
    }

    /** Close the measurement interval at time @p now. */
    void
    finish(std::uint64_t now)
    {
        accumulate(now);
    }

    /** Time-weighted mean over [first set, finish]. */
    double
    mean() const
    {
        return elapsed_ ? weighted_ / double(elapsed_) : value_;
    }

  private:
    void
    accumulate(std::uint64_t now)
    {
        if (started_ && now > last_) {
            weighted_ += value_ * double(now - last_);
            elapsed_ += now - last_;
        }
        last_ = now;
        started_ = true;
    }

    double value_ = 0;
    double weighted_ = 0;
    std::uint64_t elapsed_ = 0;
    std::uint64_t last_ = 0;
    bool started_ = false;
};

/**
 * Fixed-bucket histogram over [lo, hi): @p buckets equal-width bins
 * plus dedicated underflow/overflow bins. min/max/sum are tracked
 * exactly, so mean() is unaffected by the bucketing.
 */
class Distribution
{
  public:
    /**
     * @param lo       inclusive lower bound of the first bucket
     * @param hi       exclusive upper bound of the last bucket
     * @param buckets  number of equal-width buckets (>= 1)
     */
    Distribution(double lo, double hi, unsigned buckets);

    /** Record @p v occurring @p n times. */
    void sample(double v, std::uint64_t n = 1);

    std::uint64_t samples() const { return samples_; }
    double sum() const { return sum_; }
    double mean() const { return samples_ ? sum_ / double(samples_) : 0.0; }
    /** Smallest / largest sample seen (0 when empty). */
    double min() const { return samples_ ? min_ : 0.0; }
    double max() const { return samples_ ? max_ : 0.0; }

    unsigned buckets() const { return unsigned(counts_.size()); }
    double bucketLo() const { return lo_; }
    double bucketWidth() const { return width_; }
    /** Count of bucket @p i, covering [lo + i*w, lo + (i+1)*w). */
    std::uint64_t count(unsigned i) const { return counts_.at(i); }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    /**
     * Estimate the @p p-th percentile (0..100) by linear
     * interpolation within the bucket holding that rank, clamped to
     * [min(), max()]. Underflow ranks resolve to min(), overflow
     * ranks to max(); 0 when empty.
     */
    double percentile(double p) const;

    void reset();

  private:
    double lo_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t samples_ = 0;
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/** The statistic kinds a StatGroup can hold. */
enum class StatKind
{
    Counter,
    Average,
    TimeWeighted,
    Distribution,
    /** A derived value computed on demand (gauges, ratios). */
    Scalar,
};

/** Stable schema name of a kind ("counter", "distribution", ...). */
const char *statKindName(StatKind k);

/** One registered statistic: a name plus a typed reference. */
struct StatRef
{
    std::string name;
    /** Human-readable one-liner for --list-stats (may be empty). */
    std::string desc;
    StatKind kind = StatKind::Counter;
    const Counter *counter = nullptr;
    const Average *average = nullptr;
    const TimeWeighted *timeWeighted = nullptr;
    const Distribution *distribution = nullptr;
    std::function<double()> scalar;

    /** Best-effort numeric value (counter value / mean / scalar). */
    double numeric() const;
};

/**
 * The named statistics of one component. Registration order is
 * preserved for output; duplicate names are a hard error.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /**
     * @name Registration (panics on a duplicate @p stat_name)
     * The optional trailing @p desc is the human-readable description
     * surfaced by --list-stats.
     */
    /// @{
    void addCounter(const std::string &stat_name, const Counter *c,
                    const std::string &desc = "");
    void addAverage(const std::string &stat_name, const Average *a,
                    const std::string &desc = "");
    void addTimeWeighted(const std::string &stat_name,
                         const TimeWeighted *t,
                         const std::string &desc = "");
    void addDistribution(const std::string &stat_name,
                         const Distribution *d,
                         const std::string &desc = "");
    /** Register a derived value computed by @p fn at read time. */
    void addScalar(const std::string &stat_name,
                   std::function<double()> fn,
                   const std::string &desc = "");
    /// @}

    const std::string &name() const { return name_; }

    /** All registered statistics, in registration order. */
    const std::vector<StatRef> &stats() const { return stats_; }

    /** Find a registered statistic; nullptr if absent. */
    const StatRef *find(const std::string &stat_name) const;

    /** Look up a registered counter's value; 0 if absent. */
    std::uint64_t counterValue(const std::string &stat_name) const;

  private:
    void addRef(StatRef ref);

    std::string name_;
    std::vector<StatRef> stats_;
    std::map<std::string, std::size_t> index_;
};

/**
 * All stat groups of one simulated system. Owns the groups; group
 * references stay valid for the registry's lifetime.
 */
class StatRegistry
{
  public:
    StatRegistry() = default;
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /** Create a group named @p name (panics on a duplicate). */
    StatGroup &addGroup(const std::string &name);

    /** Find a group by name; nullptr if absent. */
    const StatGroup *find(const std::string &name) const;

    /** All groups, in registration order. */
    const std::vector<std::unique_ptr<StatGroup>> &groups() const
    {
        return groups_;
    }

    /** Value of "group.stat" counter; 0 if absent. */
    std::uint64_t counterValue(const std::string &path) const;

  private:
    std::vector<std::unique_ptr<StatGroup>> groups_;
    std::map<std::string, std::size_t> index_;
};

/** Value-copy of a Distribution for snapshots. */
struct DistSnapshot
{
    double lo = 0;
    double width = 0;
    std::vector<std::uint64_t> counts;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    std::uint64_t samples = 0;
    double sum = 0;
    double min = 0;
    double max = 0;

    double mean() const { return samples ? sum / double(samples) : 0.0; }

    /** Percentile estimate; see Distribution::percentile. */
    double percentile(double p) const;
};

/** Value-copy of one registered statistic. */
struct StatValue
{
    StatKind kind = StatKind::Counter;
    /** Counter value / Average-TimeWeighted mean / Scalar value. */
    double value = 0;
    /** Counter value (exact) or sample count. */
    std::uint64_t count = 0;
    DistSnapshot dist; //!< populated for StatKind::Distribution
};

/**
 * A by-value capture of every statistic in a registry, taken at one
 * instant. Snapshots survive the System they were taken from and are
 * what the front ends query and the JSON emitter serializes.
 *
 * Stats are addressed by "group.stat" paths.
 */
class StatSnapshot
{
  public:
    struct Group
    {
        std::string name;
        std::vector<std::pair<std::string, StatValue>> stats;
    };

    StatSnapshot() = default;
    explicit StatSnapshot(const StatRegistry &reg);

    const std::vector<Group> &groups() const { return groups_; }

    /** Find "group.stat"; nullptr if absent. */
    const StatValue *find(const std::string &path) const;

    bool has(const std::string &path) const { return find(path); }

    /** Integer value of a counter-like stat at @p path; 0 if absent. */
    std::uint64_t counter(const std::string &path) const;

    /** Best-effort numeric value of @p path; 0.0 if absent. */
    double value(const std::string &path) const;

  private:
    std::vector<Group> groups_;
    std::map<std::string, StatValue> index_;
};

} // namespace ptm

#endif // PTM_SIM_STATS_HH
