/**
 * @file
 * Deterministic pseudo-random number generation and distribution
 * samplers used by the synthetic workload generators and the
 * Tapeworm trial driver.
 *
 * Everything in the library that is stochastic draws from an explicit
 * Rng instance seeded by the caller, so a (workload, seed) pair always
 * produces exactly the same trace on every platform.
 */

#ifndef IBS_STATS_RNG_H
#define IBS_STATS_RNG_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ibs {

/**
 * xoshiro256** pseudo-random generator (Blackman & Vigna).
 *
 * Chosen over std::mt19937_64 because its output sequence is fully
 * specified here (libstdc++/libc++ agree on mt19937 too, but
 * distributions differ across standard libraries); all sampling is
 * therefore implemented in this module rather than with <random>
 * distributions.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 state expansion. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform integer in [0, bound), bound > 0 (unbiased). */
    uint64_t nextBounded(uint64_t bound);

    /** Bernoulli trial with probability p of returning true. */
    bool nextBool(double p);

    /**
     * Geometric sample: number of failures before the first success,
     * success probability p in (0, 1]. Mean is (1-p)/p. A caller
     * that draws with one p many times holds a GeometricSampler
     * instead, which draws the same values.
     */
    uint64_t nextGeometric(double p);

    /** Exponential sample with the given mean (> 0). */
    double nextExponential(double mean);

    /**
     * Fork an independent generator whose stream is decorrelated from
     * this one. Used to give each workload component its own stream.
     */
    Rng fork();

  private:
    uint64_t s_[4];
};

/**
 * Geometric distribution with a fixed success probability p in
 * (0, 1]: the number of failures before the first success, drawn by
 * inversion as floor(log(u) / log1p(-p)) for one uniform u. Holding
 * log1p(-p) spares a caller that draws with one p many times (the
 * workload walkers) its evaluation on every draw; the samples are
 * bit for bit those of evaluating it each time. Rng::nextGeometric
 * draws through a temporary sampler. With p = 1 the sample is always
 * 0 and consumes no draw.
 */
class GeometricSampler
{
  public:
    /** @param p success probability in (0, 1] */
    explicit GeometricSampler(double p);

    /** Draw one sample (one nextDouble, none when p = 1). */
    uint64_t sample(Rng &rng) const;

  private:
    /** log1p(-p), negative; 0 marks p = 1 (log1p(-p) is nonzero for
     *  every p in (0, 1)). */
    double logFail_ = 0.0;
};

/**
 * Sampler for a discrete distribution over indices 0..n-1 with the
 * given (unnormalized, non-negative) weights. Uses Walker's alias
 * method: O(n) setup, O(1) per sample.
 */
class DiscreteSampler
{
  public:
    DiscreteSampler() = default;
    explicit DiscreteSampler(const std::vector<double> &weights);

    /** Number of outcomes (0 if default-constructed). */
    size_t size() const { return prob_.size(); }

    /** Draw an index in [0, size()). Requires size() > 0. */
    size_t sample(Rng &rng) const;

  private:
    std::vector<double> prob_;
    std::vector<uint32_t> alias_;
};

/**
 * Zipf(s) sampler over ranks 1..n, P(k) proportional to 1/k^s.
 *
 * The workload generators use Zipf-distributed reuse ranks to produce
 * the heavy-tailed LRU stack-distance profiles that make large-footprint
 * code keep missing in caches well past the "knee" (Figure 1 of the
 * paper shows IBS still missing at 128 KB where SPEC has converged).
 */
class ZipfSampler
{
  public:
    ZipfSampler() = default;

    /** @param n number of ranks; @param s exponent (s >= 0). */
    ZipfSampler(size_t n, double s);

    size_t size() const { return n_; }
    double exponent() const { return s_; }

    /** Draw a rank in [0, n). Requires n > 0. */
    size_t sample(Rng &rng) const;

  private:
    size_t n_ = 0;
    double s_ = 0.0;
    // Full normalized CDF; sampling is an O(log n) binary search.
    std::vector<double> cdf_;
};

} // namespace ibs

#endif // IBS_STATS_RNG_H
