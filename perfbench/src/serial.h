/**
 * @file
 * The closed-loop runner shared by the single-threaded workloads
 * (web-tenants, web-bulk, sql-mixed): one client, zero think time,
 * one op at a time.
 *
 * A run sets the deployment up several times (setup_s is the median),
 * warms it, then loops ops until the time is up. Per-layer counts and
 * modelled time come from a fixed, seed-determined window of the
 * first ops after warm-up, so two runs with one seed give identical
 * counts; wall-clock metrics come from the untraced ops.
 */

#ifndef PERFBENCH_SERIAL_H_
#define PERFBENCH_SERIAL_H_

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/** Wall time of one op, split as the end-to-end metrics need it. */
struct OpSample {
    int64_t deployNs = 0; ///< inside calls into the deployment
    int64_t readNs = -1;  ///< read part, -1 when the op has none
    int64_t writeNs = -1; ///< write part, -1 when the op has none
};

/** A workload the serial runner runs. */
class SerialWorkload {
  public:
    virtual ~SerialWorkload() = default;

    /** Builds a fresh deployment from the seed, replacing the old one. */
    virtual void setup(uint64_t seed, double *boot_s,
                       double *populate_s) = 0;

    /**
     * Runs the next op. Records spans into @p tb when it is non-null.
     * @return false when the output check failed (reported in @p rep).
     */
    virtual bool op(SpanBuffer *tb, OpSample &s, Report &rep) = 0;

    virtual cubicleos::core::System &sys() = 0;

    /** runAs() switches the workload made so far. */
    virtual uint64_t entries() const = 0;

    /** Starts and ends the counted window (workload-side counters). */
    virtual void beginCount() = 0;
    virtual void endCount() = 0;

    /** Adds the workload's own layer metrics over @p ops counted ops. */
    virtual void addLayerMetrics(Report &rep, uint64_t ops) = 0;

    /**
     * Adds checks on one sampled traced request (web workloads). The
     * default adds nothing.
     */
    virtual void addSampleMetrics(Report &, const Tracer &) {}
};

/** Sizes of one serial run. */
struct SerialPlan {
    uint64_t warmupOps = 0;
    uint64_t countedOps = 0;
    uint64_t blockOps = 64;  ///< ops per traced/untraced block
    /** Ops of one whole op mix; a timing block ends only at its end. */
    uint64_t mixOps = 1;
    uint64_t traceEvery = 1; ///< in traced blocks, trace every n-th op
    std::vector<std::string> spanNames;
};

/** Runs @p w under @p plan and fills @p rep. */
void runSerial(const Args &args, const SerialPlan &plan,
               SerialWorkload &w, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_SERIAL_H_
