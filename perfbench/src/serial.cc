#include "serial.h"

#include <cstdio>

namespace perfbench {

void
runSerial(const Args &args, const SerialPlan &plan, SerialWorkload &w,
          Report &rep)
{
    measureSetup(rep, [&](double *boot_s, double *populate_s) {
        w.setup(args.seed, boot_s, populate_s);
    });

    auto runOp = [&](SpanBuffer *tb, OpSample &s) {
        ++rep.attempted;
        if (!w.op(tb, s, rep))
            ++rep.failed;
    };
    for (uint64_t n = 0; n < plan.warmupOps; ++n) {
        OpSample s;
        runOp(nullptr, s);
    }

    Tracer tracer;
    SpanBuffer *tb = args.trace ? tracer.newBuffer() : nullptr;
    TraceTally tally;

    const Counters c0 = Counters::read(w.sys());
    const uint64_t e0 = w.entries();
    w.beginCount();
    Counters c1;
    uint64_t e1 = 0;

    BlockedRun run;
    double peakRss = 0;
    int64_t loopNs = 0;
    int64_t blockStart = nowNs();
    const int64_t deadline =
        blockStart + static_cast<int64_t>(args.seconds * 1e9);
    for (uint64_t idx = 0; idx < plan.countedOps || nowNs() < deadline;
         ++idx) {
        const bool live = tb && tb->spans.size() < kMaxSpans;
        const bool traced = live && (idx / plan.blockOps) % 2 == 1;
        SpanBuffer *b =
            traced && idx % plan.traceEvery == 0 ? tb : nullptr;
        if (b) {
            b->req = idx;
            ++tally.sampled;
        }
        OpSample s;
        const int64_t t0 = nowNs();
        runOp(b, s);
        const int64_t dt = nowNs() - t0;
        if (idx + 1 == plan.countedOps) {
            c1 = Counters::read(w.sys());
            e1 = w.entries();
            w.endCount();
            // Read before the run's own latency samples, which grow
            // with the host's speed, add to it.
            peakRss = peakRssMb();
        }
        if (traced) {
            tally.tracedNs += dt;
            ++tally.tracedOps;
        } else {
            if (live) {
                tally.pairedNs += dt;
                ++tally.pairedOps;
            }
            loopNs += dt;
            run.add(s.deployNs, s.readNs, s.writeNs);
        }
        if ((idx + 1) % plan.mixOps == 0 &&
            t0 + dt - blockStart >= kBlockNs) {
            run.close();
            blockStart = t0 + dt;
        }
    }
    // The last, partial block counts only when it is the only one.
    if (run.blocks() == 0)
        run.close();
    std::printf("untraced ops %llu (%zu latency samples, %zu blocks), "
                "deployment wall %.3f s of %.3f s loop wall\n",
                static_cast<unsigned long long>(run.ops()), run.samples(),
                run.blocks(), static_cast<double>(run.deployNs()) / 1e9,
                static_cast<double>(loopNs) / 1e9);

    // End to end: the untraced ops.
    run.report(rep, peakRss);

    // Per layer: the counted window.
    addLayerMetrics(rep, c1 - c0, plan.countedOps, e1 - e0,
                    w.sys().mode());
    w.addLayerMetrics(rep, plan.countedOps);
    rep.add("loadgen.client_us_per_op",
            static_cast<double>(loopNs - run.deployNs()) / 1e3 /
                static_cast<double>(run.ops()),
            "us");

    if (args.trace) {
        addTraceResults(rep, args, tracer, tally, plan.spanNames);
        w.addSampleMetrics(rep, tracer);
    }
}

} // namespace perfbench
