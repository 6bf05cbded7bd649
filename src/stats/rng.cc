/**
 * @file
 * Implementation of the deterministic RNG and samplers.
 */

#include "stats/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>

namespace ibs {

namespace {

/** splitmix64 step, used to expand a 64-bit seed into generator state. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
    // Guard against the (astronomically unlikely) all-zero state.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::nextDouble()
{
    // 53 high bits -> [0,1) with full double precision.
    return (next() >> 11) * 0x1.0p-53;
}

uint64_t
Rng::nextBounded(uint64_t bound)
{
    assert(bound > 0);
    // Lemire's nearly-divisionless unbiased bounded sampling.
    uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
        uint64_t threshold = -bound % bound;
        while (l < threshold) {
            x = next();
            m = static_cast<__uint128_t>(x) * bound;
            l = static_cast<uint64_t>(m);
        }
    }
    return static_cast<uint64_t>(m >> 64);
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

uint64_t
Rng::nextGeometric(double p)
{
    return GeometricSampler(p).sample(*this);
}

double
Rng::nextExponential(double mean)
{
    assert(mean > 0.0);
    double u = nextDouble();
    if (u <= 0.0)
        u = 0x1.0p-53;
    return -mean * std::log(u);
}

Rng
Rng::fork()
{
    // Seed the child from two successive outputs mixed together; the
    // splitmix expansion in the constructor decorrelates the streams.
    uint64_t a = next();
    uint64_t b = next();
    return Rng(a ^ rotl(b, 31) ^ 0xd1b54a32d192ed03ULL);
}

GeometricSampler::GeometricSampler(double p)
{
    assert(p > 0.0 && p <= 1.0);
    if (p < 1.0)
        logFail_ = std::log1p(-p);
}

uint64_t
GeometricSampler::sample(Rng &rng) const
{
    if (logFail_ == 0.0)
        return 0;
    double u = rng.nextDouble();
    // Avoid log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    return static_cast<uint64_t>(std::floor(std::log(u) / logFail_));
}

DiscreteSampler::DiscreteSampler(const std::vector<double> &weights)
{
    const size_t n = weights.size();
    prob_.assign(n, 0.0);
    alias_.assign(n, 0);
    if (n == 0)
        return;

    double total = 0.0;
    for (double w : weights) {
        assert(w >= 0.0);
        total += w;
    }
    assert(total > 0.0);

    // Walker/Vose alias table construction.
    std::vector<double> scaled(n);
    for (size_t i = 0; i < n; ++i)
        scaled[i] = weights[i] * n / total;

    std::deque<uint32_t> small, large;
    for (size_t i = 0; i < n; ++i) {
        if (scaled[i] < 1.0)
            small.push_back(static_cast<uint32_t>(i));
        else
            large.push_back(static_cast<uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
        uint32_t s = small.front(); small.pop_front();
        uint32_t l = large.front(); large.pop_front();
        prob_[s] = scaled[s];
        alias_[s] = l;
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        if (scaled[l] < 1.0)
            small.push_back(l);
        else
            large.push_back(l);
    }
    while (!large.empty()) {
        prob_[large.front()] = 1.0;
        large.pop_front();
    }
    while (!small.empty()) {
        prob_[small.front()] = 1.0;
        small.pop_front();
    }
}

size_t
DiscreteSampler::sample(Rng &rng) const
{
    assert(!prob_.empty());
    const size_t i = rng.nextBounded(prob_.size());
    return rng.nextDouble() < prob_[i] ? i : alias_[i];
}

ZipfSampler::ZipfSampler(size_t n, double s)
    : n_(n), s_(s)
{
    cdf_.resize(n);
    double acc = 0.0;
    for (size_t k = 0; k < n; ++k) {
        acc += std::pow(static_cast<double>(k + 1), -s);
        cdf_[k] = acc;
    }
    for (size_t k = 0; k < n; ++k)
        cdf_[k] /= acc;
}

size_t
ZipfSampler::sample(Rng &rng) const
{
    assert(n_ > 0);
    const double u = rng.nextDouble();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end())
        return n_ - 1;
    return static_cast<size_t>(it - cdf_.begin());
}

} // namespace ibs
