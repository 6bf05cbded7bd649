/**
 * @file
 * Overhead floors of the observability layer on the fetch loop.
 *
 * One pass is a fresh economy-baseline FetchEngine fetching the first
 * 20,000 gs.mach instructions one at a time, in one of four modes:
 *  - plain: the loop alone;
 *  - gated: the loop inside an obs::ScopedTimer, then the publication
 *    gate with the registry off (what every cell pays with obs off);
 *  - counters: the registry on, the engine's counters published;
 *  - histogram: counters plus one histogram observation.
 * Gated must keep at least 90% of plain's fetch rate, and histogram
 * at least 90% of counters'.
 *
 * The two modes of a floor alternate pass by pass until each has run
 * for at least 0.25 s, so a change in CPU speed lands on both alike.
 * A slowdown can still stick to one process, so the obs_overhead
 * ctest reruns this binary in a fresh process up to 3 times; a real
 * regression misses the floor on every attempt.
 *
 * Every pass must also count the plain pass's L1 misses: the
 * observability layer never changes what is simulated.
 *
 * Exit status: 0 when both floors hold, 1 otherwise.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/fetch_engine.h"
#include "flat_trace.h"
#include "obs/registry.h"
#include "obs/timer.h"
#include "workload/ibs.h"

namespace {

using namespace ibs;

enum class Mode { Plain, Gated, Counters, Histogram };

constexpr uint64_t kInstructions = 20000;
constexpr double kMinSideSeconds = 0.25;
constexpr double kFloor = 0.90;

/** One pass in `mode`; returns the engine's L1 misses. */
uint64_t
pass(Mode mode, const std::vector<uint64_t> &trace)
{
    obs::Registry &reg = obs::Registry::global();
    FetchEngine engine(economyBaseline());
    if (mode == Mode::Plain) {
        for (uint64_t a : trace)
            engine.fetch(a);
    } else {
        obs::ScopedTimer timer("obs_overhead", "test");
        for (uint64_t a : trace)
            engine.fetch(a);
        timer.stop();
        if (reg.enabled()) {
            engine.publishCounters(reg);
            if (mode == Mode::Histogram)
                reg.observe("obs_overhead.cell.instructions",
                            engine.stats().instructions);
        }
    }
    return engine.stats().l1Misses;
}

/**
 * Fetch rate of `mode` over that of `reference`, their passes
 * alternating (which one goes first swaps every round) until each
 * has run for kMinSideSeconds. Prints the ratio; false when it is
 * below kFloor or a pass counted other than `misses` L1 misses.
 */
bool
holdsFloor(Mode mode, Mode reference, const char *label,
           const std::vector<uint64_t> &trace, uint64_t misses)
{
    using Clock = std::chrono::steady_clock;
    const Mode modes[2] = {mode, reference};
    double seconds[2] = {0.0, 0.0};
    bool exact = true;
    for (int round = 0;
         seconds[0] < kMinSideSeconds || seconds[1] < kMinSideSeconds;
         ++round) {
        for (int side : {round % 2, 1 - round % 2}) {
            const Clock::time_point start = Clock::now();
            exact = pass(modes[side], trace) == misses && exact;
            seconds[side] += std::chrono::duration<double>(
                                 Clock::now() - start)
                                 .count();
        }
    }
    // Both sides ran the same number of passes, so the rate ratio is
    // the inverse of the time ratio.
    const double ratio = seconds[1] / seconds[0];
    std::printf("%s = %.3f (floor %.2f)%s\n", label, ratio, kFloor,
                exact ? "" : ", L1 misses differ from the plain loop");
    return exact && ratio >= kFloor;
}

} // namespace

int
main()
{
    const std::vector<uint64_t> trace =
        flatTrace(makeIbs(IbsBenchmark::Gs, OsType::Mach), kInstructions);
    obs::Registry &reg = obs::Registry::global();
    reg.setEnabled(false);
    const uint64_t misses = pass(Mode::Plain, trace);

    const bool gated = holdsFloor(Mode::Gated, Mode::Plain,
                                  "gated/plain", trace, misses);
    reg.setEnabled(true);
    const bool histogram = holdsFloor(Mode::Histogram, Mode::Counters,
                                      "histogram/counters", trace,
                                      misses);
    return gated && histogram ? 0 : 1;
}
