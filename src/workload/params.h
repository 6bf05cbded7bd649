/**
 * @file
 * Workload model parameters.
 *
 * The original IBS traces cannot be re-collected (Monster, DECstation
 * hardware, 1995 binaries). This module defines the statistical model
 * we substitute: every workload is a set of *components* (user task,
 * kernel, BSD server, X server), each an address-space region of
 * procedures executed by a calibrated random walk. See DESIGN.md §2
 * for why this preserves the behaviours the paper measures.
 *
 * Knob-to-behaviour map:
 *  - procCount * procMeanBytes   => code footprint (capacity misses)
 *  - zipfS                       => reuse concentration (miss-ratio
 *                                   decay vs cache size; small s =
 *                                   heavy tail = "bloated" code)
 *  - runMeanBytes / pSkip        => spatial locality (line-size and
 *                                   prefetch response)
 *  - pLoop / loopMeanBytes       => near reuse (hit clustering)
 *  - visitMeanBytes / pCall      => call-graph churn (how quickly
 *                                   execution leaves a procedure)
 *  - fragmented                  => page-granular scatter of hot
 *                                   procedures (conflict misses)
 *  - executionShare / dwell      => Table 4 execution-time breakdown
 *                                   and OS interleaving granularity
 */

#ifndef IBS_WORKLOAD_PARAMS_H
#define IBS_WORKLOAD_PARAMS_H

#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.h"

namespace ibs {

/** Role of a component within a workload (Table 4 columns). */
enum class ComponentKind : uint8_t
{
    User,      ///< The application task itself.
    Kernel,    ///< OS kernel (kseg0, unmapped).
    BsdServer, ///< Mach user-level 4.3 BSD server.
    XServer,   ///< X11 display server.
};

/** Name of a component kind. */
const char *componentKindName(ComponentKind kind);

/** Statistical description of one component's instruction stream. */
struct ComponentParams
{
    ComponentKind kind = ComponentKind::User;
    Asid asid = 1;          ///< Address space (KERNEL_ASID = kernel).
    uint64_t base = 0x00400000; ///< Text segment virtual base.

    uint32_t procCount = 256;    ///< Number of procedures.
    uint32_t procMeanBytes = 512; ///< Mean procedure size.
    double zipfS = 1.0;          ///< Hot-tier popularity exponent.

    /**
     * Working-set structure: transfers target the *hot tier* (the
     * `hotProcs` most popular procedures, Zipf-distributed) except
     * with probability pCold, when they pick uniformly from the whole
     * image — initialization paths, error handling, rarely-used
     * features. The hot tier sets where the miss-ratio knee falls;
     * pCold sets the stubborn residual at large cache sizes.
     * hotProcs == 0 means the whole image is the hot tier.
     */
    uint32_t hotProcs = 0;
    double pCold = 0.0;

    /**
     * Popularity-vs-placement correlation. Statically-linked,
     * single-module programs (SPEC) have their hot procedures near
     * each other in the image — related code is compiled and linked
     * together — so clustered=true places popularity ranks in address
     * order with only local shuffling. Bloated multi-library code has
     * its hot procedures strewn across the image (clustered=false,
     * full shuffle), which is precisely what manufactures the
     * direct-mapped conflict misses of Figure 1.
     */
    bool clusteredHot = false;

    uint32_t visitMeanBytes = 96; ///< Mean bytes executed per visit.
    uint32_t runMeanBytes = 24;   ///< Mean sequential run (basic block).
    double pLoop = 0.25;          ///< P(backward branch at run end).
    uint32_t loopMeanBytes = 48;  ///< Mean backward-branch distance.
    double pSkip = 0.25;          ///< P(short forward skip at run end).
    uint32_t skipMeanBytes = 16;  ///< Mean forward-skip distance.

    bool fragmented = false; ///< Page-scatter procedures (code bloat).

    double executionShare = 1.0; ///< Fraction of instructions (Table 4).
    uint32_t dwellMeanInstr = 2000; ///< Mean instructions per scheduling
                                    ///< quantum before switching away.
};

/** Data-reference model shared by a workload's components. */
struct DataParams
{
    bool enabled = false;
    double pLoad = 0.20;    ///< P(load per instruction).
    double pStore = 0.10;   ///< Long-run store rate per instruction.

    /**
     * Store clustering: probability that the instruction after a
     * store also stores (prologue spills, struct copies, memset-like
     * loops). The base store probability is derived so the long-run
     * rate stays pStore. Bursts are what make the DECstation's
     * 4-deep write buffer fill and stall (Table 1's CPIwrite).
     */
    double pStoreBurst = 0.45;
    double pStack = 0.40;   ///< P(data ref targets the stack).
    uint32_t stackBytes = 2048;      ///< Hot stack window.
    uint64_t heapBytes = 512 * 1024; ///< Heap/global region size.
    double heapZipfS = 0.75;         ///< Heap block popularity.
    uint64_t dataBase = 0x30000000;  ///< Data segment virtual base.
};

/** Host operating system structure (the paper's two systems). */
enum class OsType : uint8_t
{
    Ultrix, ///< Monolithic kernel, Ultrix 3.1.
    Mach,   ///< Micro-kernel + user-level BSD/X servers, Mach 3.0.
};

/** Name of an OS type. */
const char *osName(OsType os);

/** A complete workload: components + scheduler + data model. */
struct WorkloadSpec
{
    std::string name;
    OsType os = OsType::Mach;
    std::vector<ComponentParams> components;
    DataParams data;
    uint64_t seed = 0x1b5; ///< Base seed; callers may override.

    /** Component index by kind, or -1 when absent. */
    int findComponent(ComponentKind kind) const;
};

} // namespace ibs

#endif // IBS_WORKLOAD_PARAMS_H
