/**
 * @file
 * WorkloadModel implementation.
 */

#include "workload/model.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace ibs {

WorkloadModel::WorkloadModel(const WorkloadSpec &spec)
    : spec_(spec)
{
    if (spec_.components.empty())
        throw std::invalid_argument("workload has no components");

    Rng master(spec_.seed);
    Rng layout_rng = master.fork();
    Rng walker_rng = master.fork();
    Rng data_rng = master.fork();
    schedRng_ = master.fork();

    std::vector<double> pick_weights;
    uint64_t data_offset = 0;
    for (const ComponentParams &cp : spec_.components) {
        layouts_.push_back(
            std::make_unique<CodeLayout>(cp, layout_rng));
        Component comp;
        comp.asid = cp.asid;
        comp.dwellMean = std::max<uint32_t>(1, cp.dwellMeanInstr);
        comp.code = std::make_unique<CodeWalker>(*layouts_.back(), cp,
                                                 walker_rng.fork());
        if (spec_.data.enabled) {
            comp.data = std::make_unique<DataWalker>(
                spec_.data, data_offset, data_rng.fork());
            data_offset += spec_.data.heapBytes + (1 << 20);
        }
        components_.push_back(std::move(comp));
        // Stationary share of a semi-Markov switch process is
        // pick-probability * mean dwell; divide the target share by
        // the dwell so long-quantum components are picked less often.
        pick_weights.push_back(cp.executionShare /
                               static_cast<double>(comp.dwellMean));
    }
    pick_ = DiscreteSampler(pick_weights);

    // Start in the highest-share component.
    double best = -1.0;
    for (size_t i = 0; i < spec_.components.size(); ++i) {
        if (spec_.components[i].executionShare > best) {
            best = spec_.components[i].executionShare;
            current_ = i;
        }
    }
    dwellLeft_ = 1 + static_cast<int64_t>(schedRng_.nextExponential(
        components_[current_].dwellMean));
}

void
WorkloadModel::switchComponent()
{
    const size_t next = pick_.sample(schedRng_);
    if (next != current_)
        ++switches_;
    current_ = next;
    dwellLeft_ = 1 + static_cast<int64_t>(schedRng_.nextExponential(
        components_[current_].dwellMean));
}

bool
WorkloadModel::next(TraceRecord &rec)
{
    // Drain data references attached to the previous instruction.
    if (pendingPos_ < pendingCount_) {
        rec = pending_[pendingPos_++];
        return true;
    }

    if (dwellLeft_ <= 0)
        switchComponent();

    Component &comp = components_[current_];
    rec.vaddr = comp.code->next();
    rec.asid = comp.asid;
    rec.kind = RefKind::InstrFetch;
    --dwellLeft_;
    ++instructions_;

    if (spec_.data.enabled) {
        pendingCount_ = 0;
        pendingPos_ = 0;
        if (schedRng_.nextBool(spec_.data.pLoad)) {
            pending_[pendingCount_++] = TraceRecord{
                comp.data->next(), comp.asid, RefKind::DataRead};
        }
        // Markov store process: stationary rate pStore, with bursts
        // of consecutive stores at pStoreBurst.
        const double c = spec_.data.pStoreBurst;
        const double pi = spec_.data.pStore;
        const double base = pi < 1.0 ? pi * (1.0 - c) / (1.0 - pi)
                                     : 1.0;
        if (schedRng_.nextBool(lastWasStore_ ? c : base)) {
            pending_[pendingCount_++] = TraceRecord{
                comp.data->next(), comp.asid, RefKind::DataWrite};
            lastWasStore_ = true;
        } else {
            lastWasStore_ = false;
        }
    }
    return true;
}

uint64_t
WorkloadModel::nextInstrBlock(uint64_t max_count, uint64_t &start)
{
    assert(!spec_.data.enabled && max_count >= 1);
    if (dwellLeft_ <= 0)
        switchComponent();
    Component &comp = components_[current_];
    // The dwell budget is only inspected between instructions, so a
    // block bounded by it can never straddle a component switch.
    const uint64_t cap =
        std::min(max_count, static_cast<uint64_t>(dwellLeft_));
    const uint64_t n = comp.code->nextBlock(cap, start);
    dwellLeft_ -= static_cast<int64_t>(n);
    instructions_ += n;
    return n;
}

int
WorkloadSpec::findComponent(ComponentKind kind) const
{
    for (size_t i = 0; i < components.size(); ++i) {
        if (components[i].kind == kind)
            return static_cast<int>(i);
    }
    return -1;
}

const char *
componentKindName(ComponentKind kind)
{
    switch (kind) {
      case ComponentKind::User: return "User";
      case ComponentKind::Kernel: return "Kernel";
      case ComponentKind::BsdServer: return "BSD";
      case ComponentKind::XServer: return "X";
    }
    return "?";
}

const char *
osName(OsType os)
{
    switch (os) {
      case OsType::Ultrix: return "Ultrix 3.1";
      case OsType::Mach: return "Mach 3.0";
    }
    return "?";
}

} // namespace ibs
