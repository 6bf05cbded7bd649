/**
 * @file
 * Running summary statistics (Welford).
 *
 * Figure 5 of the paper reports one standard deviation of CPIinstr over
 * five Tapeworm trials; RunningStats is the accumulator used for that
 * and for every other multi-trial aggregation in the library.
 */

#ifndef IBS_STATS_SUMMARY_H
#define IBS_STATS_SUMMARY_H

#include <cmath>
#include <cstdint>
#include <limits>

namespace ibs {

/**
 * Numerically-stable running mean / variance / min / max accumulator
 * using Welford's online algorithm.
 */
class RunningStats
{
  public:
    /** Add one observation. */
    void
    add(double x)
    {
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        if (x < min_) min_ = x;
        if (x > max_) max_ = x;
    }

    /** Merge another accumulator into this one (parallel Welford). */
    void
    merge(const RunningStats &other)
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
        const double nt = na + nb;
        mean_ += delta * nb / nt;
        m2_ += other.m2_ + delta * delta * na * nb / nt;
        n_ += other.n_;
        if (other.min_ < min_) min_ = other.min_;
        if (other.max_ > max_) max_ = other.max_;
    }

    uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    /** Population variance (divide by n). */
    double
    variance() const
    {
        return n_ ? m2_ / static_cast<double>(n_) : 0.0;
    }

    /** Sample variance (divide by n-1); 0 when fewer than 2 samples. */
    double
    sampleVariance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }

    /** Sample standard deviation (the paper's Figure 5 metric). */
    double stddev() const { return std::sqrt(sampleVariance()); }

  private:
    uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace ibs

#endif // IBS_STATS_SUMMARY_H
