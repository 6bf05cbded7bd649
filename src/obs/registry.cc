/**
 * @file
 * Registry implementation.
 */

#include "obs/registry.h"

#include <bit>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>

namespace ibs::obs {

namespace {

bool
envEnabled()
{
    if (const char *env = std::getenv("IBS_OBS");
        env && (std::strcmp(env, "1") == 0 ||
                std::strcmp(env, "true") == 0))
        return true;
    // A trace sink implies counters: its export samples the registry.
    if (const char *env = std::getenv("IBS_OBS_TRACE");
        env && *env != '\0')
        return true;
    return false;
}

/** Log2 bucket index (values 0 and 1 share bucket 0). */
size_t
bucketOf(uint64_t value)
{
    if (value == 0)
        return 0;
    return static_cast<size_t>(std::bit_width(value) - 1);
}

/** Upper inclusive edge of bucket k: 2^(k+1)-1 (saturating). */
uint64_t
bucketUpperEdge(size_t k)
{
    if (k + 1 >= 64)
        return UINT64_MAX;
    return (uint64_t{1} << (k + 1)) - 1;
}

} // namespace

uint64_t
log2BucketUpperEdge(uint64_t value)
{
    return bucketUpperEdge(bucketOf(value));
}

Json
histogramsToJson(
    const std::map<std::string, HistogramSnapshot> &histograms)
{
    Json out = Json::object();
    for (const auto &[name, hist] : histograms) {
        Json counts = Json::array();
        for (uint64_t c : hist.counts)
            counts.push(Json::number(c));
        out.set(name, Json::object()
                          .set("counts", std::move(counts))
                          .set("overflow", Json::number(hist.overflow))
                          .set("sum", Json::number(hist.sum))
                          .set("count", Json::number(hist.count)));
    }
    return out;
}

std::map<std::string, HistogramSnapshot>
histogramsFromJson(const Json &json)
{
    if (!json.isObject())
        throw std::invalid_argument("histograms: not an object");
    std::map<std::string, HistogramSnapshot> out;
    for (const auto &[name, member] : json.members()) {
        const auto bad = [&name](const std::string &why) {
            return std::invalid_argument("histogram \"" + name +
                                         "\": " + why);
        };
        const auto number = [&](const Json *value, const char *what) {
            const std::optional<uint64_t> v =
                value ? value->asUint() : std::nullopt;
            if (!v)
                throw bad(std::string(what) +
                          " is not a non-negative integer");
            return *v;
        };
        if (!member.isObject())
            throw bad("not an object");
        const Json *counts = member.find("counts");
        if (!counts || !counts->isArray() ||
            counts->size() != kHistogramBuckets)
            throw bad("\"counts\" is not an array of " +
                      std::to_string(kHistogramBuckets) + " buckets");
        HistogramSnapshot hist;
        hist.overflow = number(member.find("overflow"), "overflow");
        hist.sum = number(member.find("sum"), "sum");
        hist.count = number(member.find("count"), "count");
        uint64_t total = hist.overflow;
        for (size_t k = 0; k < kHistogramBuckets; ++k) {
            hist.counts[k] = number(&counts->at(k), "a bucket count");
            if (hist.counts[k] > UINT64_MAX - total)
                throw bad("bucket counts overflow");
            total += hist.counts[k];
        }
        if (total != hist.count)
            throw bad("buckets plus overflow hold " +
                      std::to_string(total) + " observations, count " +
                      "says " + std::to_string(hist.count));
        out[name] = hist;
    }
    return out;
}

uint64_t
HistogramSnapshot::quantile(double q) const
{
    if (count == 0)
        return 0;
    const double target = q * static_cast<double>(count);
    double acc = 0.0;
    // Only an occupied bucket can satisfy the quantile: with q = 0
    // the target is 0 and "acc >= target" would hold at an empty
    // leading bucket otherwise.
    for (size_t k = 0; k < counts.size(); ++k) {
        acc += static_cast<double>(counts[k]);
        if (counts[k] > 0 && acc >= target)
            return bucketUpperEdge(k);
    }
    return UINT64_MAX; // The mass lies in the overflow bin.
}

Registry::Registry()
{
    enabled_.store(envEnabled(), std::memory_order_relaxed);
}

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

Registry::Shard &
Registry::localShard()
{
    // One shard per thread, owned by the registry so it survives the
    // (short-lived) sweep workers that created it; the thread_local
    // caches the lookup. The registry is a process-lifetime
    // singleton, so the cached pointer can never dangle.
    thread_local Shard *cached = nullptr;
    if (cached)
        return *cached;
    auto shard = std::make_unique<Shard>();
    cached = shard.get();
    std::lock_guard<std::mutex> lock(mutex_);
    shards_.push_back(std::move(shard));
    return *cached;
}

void
Registry::add(const std::string &name, uint64_t delta)
{
    Shard &shard = localShard();
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.counters[name] += delta;
}

void
Registry::observe(const std::string &name, uint64_t value)
{
    Shard &shard = localShard();
    std::lock_guard<std::mutex> lock(shard.mutex);
    HistShard &hist = shard.histograms[name];
    const size_t k = bucketOf(value);
    if (k >= hist.counts.size())
        ++hist.overflow;
    else
        ++hist.counts[k];
    hist.sum += value;
    ++hist.count;
}

std::map<std::string, uint64_t>
Registry::snapshot() const
{
    std::map<std::string, uint64_t> counters;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> shard_lock(shard->mutex);
        for (const auto &[name, value] : shard->counters)
            counters[name] += value;
    }
    return counters;
}

std::map<std::string, HistogramSnapshot>
Registry::snapshotHistograms() const
{
    std::map<std::string, HistogramSnapshot> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> shard_lock(shard->mutex);
        for (const auto &[name, hist] : shard->histograms) {
            HistogramSnapshot &merged = out[name];
            for (size_t k = 0; k < hist.counts.size(); ++k)
                merged.counts[k] += hist.counts[k];
            merged.overflow += hist.overflow;
            merged.sum += hist.sum;
            merged.count += hist.count;
        }
    }
    return out;
}

Json
Registry::snapshotJson() const
{
    // Build into a map first so histogram-derived keys land in
    // lexicographic order next to the counters; emplace keeps a
    // colliding counter (documented collision rule).
    std::map<std::string, uint64_t> flat = snapshot();
    for (const auto &[name, hist] : snapshotHistograms()) {
        flat.emplace(name + ".count", hist.count);
        flat.emplace(name + ".sum", hist.sum);
    }
    Json obj = Json::object();
    for (const auto &[name, value] : flat)
        obj.set(name, Json::number(value));
    return obj;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> shard_lock(shard->mutex);
        shard->counters.clear();
        shard->histograms.clear();
    }
}

} // namespace ibs::obs
