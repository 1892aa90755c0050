#include "sim/stats.hh"

#include <cmath>

#include "sim/logging.hh"

namespace noc
{

void
RunningStat::sample(double x)
{
    ++n_;
    sum_ += x;
    if (n_ == 1) {
        mean_ = x;
        m2_ = 0.0;
        min_ = max_ = x;
        return;
    }
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStat::reset()
{
    *this = RunningStat();
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

LogHistogram::LogHistogram(double lo, double hi, std::size_t num_buckets)
    : buckets_(num_buckets, 0)
{
    if (lo <= 0.0 || hi <= lo || num_buckets == 0)
        panic("LogHistogram requires 0 < lo < hi and at least 1 bucket");
    bounds_.reserve(num_buckets + 1);
    const double ratio = hi / lo;
    const double n = static_cast<double>(num_buckets);
    for (std::size_t i = 0; i <= num_buckets; ++i)
        bounds_.push_back(
            lo * std::pow(ratio, static_cast<double>(i) / n));
    // Pin the ends so bound(0) == lo and bound(n) == hi exactly.
    bounds_.front() = lo;
    bounds_.back() = hi;
}

void
LogHistogram::sample(double x)
{
    if (count_ == 0) {
        minSample_ = maxSample_ = x;
    } else {
        minSample_ = std::min(minSample_, x);
        maxSample_ = std::max(maxSample_, x);
    }
    ++count_;
    sum_ += x;
    if (x >= bounds_.back()) {
        ++overflow_;
        return;
    }
    // First bound greater than x; bucket i covers [bound(i), bound(i+1)).
    // Samples below lo fall into bucket 0.
    const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), x);
    const std::size_t idx =
        it == bounds_.begin()
            ? 0
            : static_cast<std::size_t>(it - bounds_.begin()) - 1;
    ++buckets_[std::min(idx, buckets_.size() - 1)];
}

void
LogHistogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    overflow_ = 0;
    count_ = 0;
    minSample_ = 0.0;
    maxSample_ = 0.0;
    sum_ = 0.0;
}

double
LogHistogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    const double target = p * static_cast<double>(count_);
    double cum = 0.0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        const double next = cum + static_cast<double>(buckets_[i]);
        if (next >= target && buckets_[i] > 0) {
            const double frac =
                (target - cum) / static_cast<double>(buckets_[i]);
            const double lo = bounds_[i];
            const double hi = bounds_[i + 1];
            const double v = lo + frac * (hi - lo);
            return std::clamp(v, minSample_, maxSample_);
        }
        cum = next;
    }
    // Target falls in the overflow bucket: report the exact max.
    return maxSample_;
}

void
LogHistogram::merge(const LogHistogram &other)
{
    if (other.bounds_ != bounds_)
        panic("LogHistogram::merge: incompatible geometries");
    if (other.count_ == 0)
        return;
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    overflow_ += other.overflow_;
    minSample_ =
        count_ ? std::min(minSample_, other.minSample_) : other.minSample_;
    maxSample_ =
        count_ ? std::max(maxSample_, other.maxSample_) : other.maxSample_;
    count_ += other.count_;
    sum_ += other.sum_;
}

FairnessSummary
summarizeFairness(const std::vector<double> &values)
{
    FairnessSummary s;
    if (values.empty())
        return s;
    RunningStat rs;
    double sum = 0.0;
    double sq = 0.0;
    for (double v : values) {
        rs.sample(v);
        sum += v;
        sq += v * v;
    }
    s.max = rs.max();
    s.min = rs.min();
    s.avg = rs.mean();
    s.rsd = rs.mean() > 0.0 ? rs.stddev() / rs.mean() : 0.0;
    const double n = static_cast<double>(values.size());
    s.jain = sq > 0.0 ? (sum * sum) / (n * sq) : 0.0;
    return s;
}

} // namespace noc
