/**
 * @file
 * Lightweight statistics primitives: running mean/stddev, a
 * log-bucketed histogram, and a fairness summary.
 */

#ifndef NOC_SIM_STATS_HH
#define NOC_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace noc
{

/**
 * Streaming mean / variance / min / max via Welford's algorithm.
 * Constant memory; numerically stable.
 */
class RunningStat
{
  public:
    void sample(double x);
    void reset();

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Population variance. */
    double variance() const { return n_ ? m2_ / static_cast<double>(n_) : 0.0; }
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return sum_; }

    /** Merge another RunningStat into this one (parallel Welford). */
    void merge(const RunningStat &other);

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Histogram with logarithmically spaced buckets, for long-tailed
 * distributions (packet latency). Bucket i of n covers
 * [bound(i), bound(i+1)) with bound(i) = lo * (hi/lo)^(i/n), so equal
 * relative resolution across the whole [lo, hi) range; samples below
 * lo land in bucket 0 and samples at or above hi are counted in a
 * dedicated overflow bucket. Percentiles interpolate linearly inside
 * the containing bucket and are exact at the recorded min/max.
 */
class LogHistogram
{
  public:
    /**
     * @param lo lower edge of bucket 0 (> 0).
     * @param hi lower edge of the overflow bucket (> lo).
     * @param num_buckets number of finite buckets n (>= 1).
     */
    LogHistogram(double lo = 1.0, double hi = 1 << 20,
                 std::size_t num_buckets = 80);

    void sample(double x);
    void reset();

    std::uint64_t count() const { return count_; }
    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
    std::uint64_t overflow() const { return overflow_; }
    std::size_t numBuckets() const { return buckets_.size(); }

    /** Lower edge of bucket @p i; bound(numBuckets()) is the overflow
     *  threshold @c hi. */
    double bound(std::size_t i) const { return bounds_.at(i); }

    /** p in [0, 1]; linear interpolation within the bucket, clamped to
     *  the observed sample range. */
    double percentile(double p) const;

    double minSample() const { return count_ ? minSample_ : 0.0; }
    double maxSample() const { return count_ ? maxSample_ : 0.0; }
    double mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /** Merge another histogram with identical geometry. */
    void merge(const LogHistogram &other);

  private:
    std::vector<double> bounds_; ///< numBuckets() + 1 lower edges
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    double minSample_ = 0.0;
    double maxSample_ = 0.0;
    double sum_ = 0.0;
};

/** Fairness summary over a set of per-flow throughput values. */
struct FairnessSummary
{
    double max = 0.0;
    double min = 0.0;
    double avg = 0.0;
    /** Relative standard deviation (stddev / mean), as in Fig. 10. */
    double rsd = 0.0;
    /** Jain's fairness index, 1.0 = perfectly fair. */
    double jain = 0.0;
};

/** Compute the fairness summary of a sample vector. */
FairnessSummary summarizeFairness(const std::vector<double> &values);

} // namespace noc

#endif // NOC_SIM_STATS_HH
