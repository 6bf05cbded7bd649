/**
 * @file
 * All-associativity LRU stack simulator implementation.
 */

#include "sim/stack_sim.h"

#include <algorithm>
#include <bit>

namespace ibs {

StackSimulator::StackSimulator(
    unsigned line_shift, const std::vector<StackGeometry> &geometries)
    : lineShift_(line_shift), geometries_(geometries)
{
    masks_.reserve(geometries.size());
    for (const StackGeometry &g : geometries_)
        masks_.push_back(g.numSets - 1);
    std::sort(masks_.begin(), masks_.end());
    masks_.erase(std::unique(masks_.begin(), masks_.end()),
                 masks_.end());

    // Every mask is 2^k - 1, so they are nested: a node conflicting
    // under a large mask conflicts under every smaller one. The walk
    // exploits this by classifying each node once, by
    // countr_zero(tag ^ target) clamped to the largest mask width,
    // instead of testing each mask.
    maskBits_.reserve(masks_.size());
    for (uint64_t mask : masks_)
        maskBits_.push_back(static_cast<uint32_t>(
            std::popcount(mask)));
    maxBits_ = masks_.empty() ? 0 : maskBits_.back();
    zeroCnt_.assign(maxBits_ + 1, 0);

    maxAssoc_.assign(masks_.size(), 0);
    maskOf_.reserve(geometries_.size());
    hits_.assign(geometries_.size(), 0);
    misses_.assign(geometries_.size(), 0);
    setMisses_.reserve(geometries_.size());
    for (const StackGeometry &g : geometries_) {
        const size_t m = static_cast<size_t>(
            std::lower_bound(masks_.begin(), masks_.end(),
                             g.numSets - 1) -
            masks_.begin());
        maskOf_.push_back(static_cast<uint32_t>(m));
        maxAssoc_[m] = std::max(maxAssoc_[m], g.assoc);
        setMisses_.emplace_back(g.numSets, 0);
    }
    conflicts_.assign(masks_.size(), 0);
}

bool
StackSimulator::saturatedNow() const
{
    // Suffix-sum the per-zero-count tallies once, then require every
    // mask's conflict count to have reached its largest simulated
    // associativity.
    uint64_t suffix = 0;
    size_t m = masks_.size();
    for (uint32_t z = maxBits_ + 1; z-- > 0;) {
        suffix += zeroCnt_[z];
        while (m > 0 && maskBits_[m - 1] == z) {
            if (suffix < maxAssoc_[m - 1])
                return false;
            --m;
        }
    }
    return m == 0;
}

void
StackSimulator::moveToFront(uint32_t idx)
{
    if (head_ == idx)
        return;
    Node &node = nodes_[idx];
    if (node.prev != kNil)
        nodes_[node.prev].next = node.next;
    if (node.next != kNil)
        nodes_[node.next].prev = node.prev;
    node.prev = kNil;
    node.next = head_;
    if (head_ != kNil)
        nodes_[head_].prev = idx;
    head_ = idx;
}

void
StackSimulator::reference(uint64_t addr)
{
    const uint64_t tag = addr >> lineShift_;
    const size_t nm = masks_.size();
    for (size_t m = 0; m < nm; ++m)
        conflicts_[m] = 0;

    const auto it = index_.find(tag);
    const bool found = it != index_.end();
    bool saturated = false;
    if (found && head_ != it->second) {
        // Count, per set mask, the distinct lines above the target
        // that map to the target's set. One countr_zero classifies a
        // node against every (nested) mask at once; per-mask counts
        // fall out of a suffix sum afterwards. Stop at the target
        // (exact stack distances) or — checked periodically, the
        // test is O(masks) — once every mask is saturated past its
        // largest associativity (every geometry already missed).
        std::fill(zeroCnt_.begin(), zeroCnt_.end(), 0);
        constexpr uint32_t kSatCheckPeriod = 64;
        const uint32_t target = it->second;
        uint32_t until_check = kSatCheckPeriod;
        for (uint32_t n = head_; n != target;
             n = nodes_[n].next) {
            // diff != 0: the target is the only node with this tag.
            const uint64_t diff = nodes_[n].tag ^ tag;
            const unsigned z =
                static_cast<unsigned>(std::countr_zero(diff));
            ++zeroCnt_[z < maxBits_ ? z : maxBits_];
            if (--until_check == 0) {
                until_check = kSatCheckPeriod;
                if (saturatedNow()) {
                    saturated = true;
                    break;
                }
            }
        }
        if (saturated) {
            for (size_t m = 0; m < nm; ++m)
                conflicts_[m] = maxAssoc_[m];
        } else {
            // conflicts_[m] = min(cap, sum of nodes whose low
            // set-index bits all match under mask m).
            uint64_t suffix = 0;
            size_t m = nm;
            for (uint32_t z = maxBits_ + 1; z-- > 0;) {
                suffix += zeroCnt_[z];
                while (m > 0 && maskBits_[m - 1] == z) {
                    --m;
                    conflicts_[m] = static_cast<uint32_t>(
                        suffix < maxAssoc_[m] ? suffix
                                              : maxAssoc_[m]);
                }
            }
        }
    }

    for (size_t v = 0; v < geometries_.size(); ++v) {
        const StackGeometry &g = geometries_[v];
        if (found && !saturated &&
            conflicts_[maskOf_[v]] < g.assoc) {
            ++hits_[v];
        } else {
            ++misses_[v];
            ++setMisses_[v][tag & (g.numSets - 1)];
        }
    }

    if (found) {
        moveToFront(it->second);
    } else {
        const uint32_t idx = static_cast<uint32_t>(nodes_.size());
        nodes_.push_back(Node{tag, kNil, head_});
        if (head_ != kNil)
            nodes_[head_].prev = idx;
        head_ = idx;
        index_.emplace(tag, idx);
    }
}

std::vector<StackCounts>
StackSimulator::counts() const
{
    std::vector<StackCounts> out(geometries_.size());
    for (size_t v = 0; v < geometries_.size(); ++v) {
        out[v].hits = hits_[v];
        out[v].misses = misses_[v];
        // Cache fills an invalid way before evicting and nothing is
        // invalidated mid-run, so a set with M demand misses evicts
        // exactly max(0, M - assoc) valid lines.
        uint64_t evictions = 0;
        for (uint64_t m : setMisses_[v]) {
            if (m > geometries_[v].assoc)
                evictions += m - geometries_[v].assoc;
        }
        out[v].evictions = evictions;
    }
    return out;
}

} // namespace ibs
