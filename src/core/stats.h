/**
 * @file
 * Runtime statistics: cross-cubicle call edges, traps, retags.
 *
 * The per-edge call counters regenerate the annotations on the component
 * graphs of Fig. 5 (NGINX) and Fig. 8 (SQLite).
 *
 * Thread-safety: every counter is a relaxed atomic. Cross-calls and
 * trap-and-map faults bump them from any thread, so they must not
 * serialise the hot paths: relaxed increments add no ordering and no
 * locks, like per-CPU event counters. Readers (benches, tests) see
 * values at least as fresh as their last synchronisation point.
 */

#ifndef CUBICLEOS_CORE_STATS_H_
#define CUBICLEOS_CORE_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ids.h"
#include "hw/relaxed_atomic.h"

/**
 * Every scalar counter, named once: each entry becomes a Stat
 * enumerator, a counter slot and a read accessor of the same name
 * (`Stats::traps()`). Paired counters are bumped together.
 */
#define CUBICLEOS_STATS(X)                                                  \
    /* Trap-and-map entries (memory-protection traps taken). */             \
    X(traps)                                                                \
    /* Retags (one pkey_mprotect each) and the pages they moved: the        \
     * ratio is what range-granular faults amortise. */                     \
    X(retags) X(retagPages)                                                 \
    /* Eager retags at window open (prestaging hints) and their pages. */   \
    X(prestages) X(prestagePages)                                           \
    /* Submission-ring flushes and the cross-calls they batched. */         \
    X(ringFlushes) X(ringCalls)                                             \
    /* PKRU register writes; window API operations (init/add/open/...). */  \
    X(wrpkrus) X(windowOps)                                                 \
    /* Unresolvable faults (isolation violations); faults absorbed by a     \
     * thread's grant cache (the simulated TLB). */                         \
    X(violations) X(grantCacheHits)                                         \
    /* Calls into a virtual-key cubicle: tag still bound / parked. */       \
    X(tagHits) X(tagMisses)                                                 \
    /* Evictions to the parked tag and fault-ins back from it, each with    \
     * the pages it moved. */                                               \
    X(evictions) X(evictionPages) X(faultIns) X(faultInPages)               \
    /* Lifecycle: cubicles destroyed, the pages they returned, restarts,    \
     * and cross-calls unwound with a PeerFault. */                         \
    X(destroys) X(reclaimedPages) X(restarts) X(unwoundCalls)               \
    /* Load-time verifier runs over component images. */                    \
    X(imagesVerified) X(verifierBytesScanned) X(verifierBytesDecoded)       \
    X(verifierInsns) X(verifierRejected) X(verifierReported)                \
    /* Isolation-lint and least-privilege audit runs and findings. */       \
    X(lintRuns) X(lintFindings) X(auditRuns) X(auditFindings)               \
    /* Loads served from / missed in the verifier's image-hash cache. */    \
    X(verifyCacheHits) X(verifyCacheMisses)                                 \
    /* Payload memcpys on the data path and their bytes; TCP segments       \
     * sent from a borrowed span and their bytes. */                        \
    X(dataCopies) X(dataCopyBytes) X(zeroCopySends) X(zeroCopyBytes)

namespace cubicleos::core {

/** One scalar counter, spelled like its accessor (`Stat::traps`). */
enum class Stat : std::size_t {
#define CUBICLEOS_STAT_ENUM(name) name,
    CUBICLEOS_STATS(CUBICLEOS_STAT_ENUM)
#undef CUBICLEOS_STAT_ENUM
    kCount
};

/** One (caller → callee) edge with its call count. */
struct CallEdge {
    Cid caller;
    Cid callee;
    uint64_t count;
};

/** Aggregated runtime counters for one System. */
class Stats {
  public:
    Stats() : edgeMatrix_(kMaxCubicles * kMaxCubicles) {}

    Stats(const Stats &) = delete;
    Stats &operator=(const Stats &) = delete;

    /**
     * Records one cross-cubicle call on the (caller, callee) edge.
     * A flat-matrix increment: cheap enough to keep on in every mode.
     * @throws std::out_of_range when either cubicle ID is outside the
     *         ACL/matrix width (kMaxCubicles) — out-of-range IDs used
     *         to alias silently onto `cid % kMaxCubicles`, corrupting
     *         another cubicle's edge counters.
     */
    void countCall(Cid caller, Cid callee)
    {
        edgeMatrix_[matrixIndex(caller, callee)].fetchAdd(1);
    }

    /** Adds @p n to counter @p s. */
    void add(Stat s, uint64_t n = 1)
    {
        counters_[static_cast<std::size_t>(s)].fetchAdd(n);
    }

    /** Current value of counter @p s. */
    uint64_t get(Stat s) const
    {
        return counters_[static_cast<std::size_t>(s)];
    }

#define CUBICLEOS_STAT_ACCESSOR(name)                                       \
    uint64_t name() const { return get(Stat::name); }
    CUBICLEOS_STATS(CUBICLEOS_STAT_ACCESSOR)
#undef CUBICLEOS_STAT_ACCESSOR

    /**
     * Physical-tag hit rate over all cross-calls into virtual-key
     * cubicles, in percent; 100 when no such call happened yet.
     */
    double tagHitRatePercent() const
    {
        const uint64_t hits = tagHits();
        const uint64_t misses = tagMisses();
        if (hits + misses == 0)
            return 100.0;
        return 100.0 * static_cast<double>(hits) /
               static_cast<double>(hits + misses);
    }

    /** Returns the call count on one edge. */
    uint64_t callsOnEdge(Cid caller, Cid callee) const
    {
        return edgeMatrix_[matrixIndex(caller, callee)];
    }

    /** Total cross-cubicle calls over all edges. */
    uint64_t totalCalls() const
    {
        uint64_t n = 0;
        for (const auto &v : edgeMatrix_)
            n += v;
        return n;
    }

    /** All edges with non-zero counts. */
    std::vector<CallEdge> edges() const
    {
        std::vector<CallEdge> out;
        for (int c = 0; c < kMaxCubicles; ++c) {
            for (int e = 0; e < kMaxCubicles; ++e) {
                uint64_t v = edgeMatrix_[c * kMaxCubicles + e];
                if (v > 0) {
                    out.push_back(CallEdge{static_cast<Cid>(c),
                                           static_cast<Cid>(e), v});
                }
            }
        }
        return out;
    }

    /** Resets every counter (benchmark warm-up boundary). */
    void reset()
    {
        for (auto &v : edgeMatrix_)
            v = 0;
        for (auto &v : counters_)
            v = 0;
    }

  private:
    static std::size_t matrixIndex(Cid caller, Cid callee)
    {
        if (caller >= static_cast<Cid>(kMaxCubicles) ||
            callee >= static_cast<Cid>(kMaxCubicles)) {
            throw std::out_of_range(
                "Stats: cubicle id outside the " +
                std::to_string(kMaxCubicles) +
                "-wide call-edge matrix (caller " +
                std::to_string(caller) + ", callee " +
                std::to_string(callee) + ")");
        }
        return static_cast<std::size_t>(caller) * kMaxCubicles + callee;
    }

    using Counter = hw::RelaxedAtomic<uint64_t>;

    std::vector<Counter> edgeMatrix_;
    std::array<Counter, static_cast<std::size_t>(Stat::kCount)> counters_;
};

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_STATS_H_
