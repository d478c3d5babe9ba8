/**
 * @file
 * Shared pieces of the repo benchmark: the run arguments, the metric
 * report, latency samples, the counter snapshot every layer metric is
 * derived from, the modelled-time split, and the in-memory span
 * tracer with its Chrome trace-event writer.
 *
 * The benchmark measures the system from outside: it times calls into
 * the public API and reads the public counters (core::Stats,
 * hw::AddressSpace retags, hw::CycleClock). Nothing here reaches into
 * a component's internals.
 */

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/system.h"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock (monotonic, process-local origin). */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now().time_since_epoch())
        .count();
}

/** Command-line arguments of one run. */
struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut; ///< Chrome trace-event JSON (traced run)
};

/** One named metric with its unit. */
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * Everything one run reports: the output checks, the op counts and the
 * metrics. Rendered as the single JSON result line.
 */
class Report {
  public:
    void add(const std::string &name, double value,
             const std::string &unit);
    /** Records a failed output check (first few are printed). */
    void fail(const std::string &why);

    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> errors;

    std::string json() const;
};

/** Linear-interpolated quantile of @p v (sorted in place), q in [0,1]. */
template <typename T>
double
quantile(std::vector<T> &v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return static_cast<double>(v[lo]) * (1 - frac) +
           static_cast<double>(v[hi]) * frac;
}

/** Median of @p v. */
inline double
median(std::vector<double> v)
{
    return quantile(v, 0.5);
}

/** Peak resident set of this process in MiB. */
double peakRssMb();

/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetupReps = 5;

/**
 * Sets the deployment up kSetupReps times through
 * @p once(&boot_s, &populate_s) and reports the medians as setup_s,
 * setup.boot_s and setup.populate_s.
 */
template <typename F>
void
measureSetup(Report &rep, F &&once)
{
    std::vector<double> boots, pops, setups;
    for (int r = 0; r < kSetupReps; ++r) {
        double boot = 0, pop = 0;
        once(&boot, &pop);
        boots.push_back(boot);
        pops.push_back(pop);
        setups.push_back(boot + pop);
    }
    rep.add("setup_s", median(setups), "s");
    rep.add("setup.boot_s", median(boots), "s");
    rep.add("setup.populate_s", median(pops), "s");
}

/** Wall-time samples of untraced ops, in ns. */
struct Latencies {
    std::vector<float> op;
    std::vector<float> read;
    std::vector<float> write;
};

/**
 * Least loop wall time of one block of a run. The shared host switches
 * between a fast state and one about 1.6x slower every few seconds; a
 * block this short mostly sees one of them.
 */
inline constexpr int64_t kBlockNs = 100'000'000;

/**
 * Share of a run's blocks that ops_per_s and the medians are taken over:
 * those with the lowest median op latency, i.e. the ones run while the
 * host was fast. The fast state takes from a few percent to most of a
 * run, so the share is kept small. The p99s stay whole-run figures: one
 * slow-state op in a hundred sets a tail, so a tail over the fast blocks
 * swings with how cleanly they missed the slow state, while the slow
 * state's share of every run is large enough to set the whole run's tail
 * the same way each time.
 */
inline constexpr double kFastShare = 0.02;

/** One block of a run: its counts and where its samples start. */
struct Block {
    uint64_t ops = 0;     ///< untraced ops
    int64_t deployNs = 0; ///< their deployment wall time
    std::size_t op = 0, read = 0, write = 0; ///< first sample in each series
    float p50 = 0;        ///< median op latency of the block
};

/** The wall-time samples of a run, in the order they ran, cut in blocks. */
class BlockedRun {
  public:
    /** Adds an untraced op to the open block; -1 marks a missing part. */
    void add(int64_t deploy_ns, int64_t read_ns, int64_t write_ns);
    /** Closes the open block when it holds an op. */
    void close();
    /**
     * Adds a closed block of @p ops ops that spent @p deploy_ns in the
     * deployment, with the samples @p lat.
     */
    void addBlock(uint64_t ops, int64_t deploy_ns, const Latencies &lat);

    std::size_t blocks() const { return blocks_.size(); }
    uint64_t ops() const { return ops_; }
    int64_t deployNs() const { return deployNs_; }
    std::size_t samples() const { return lat_.op.size(); }

    /**
     * Adds the wall-time end-to-end metrics (ops_per_s and the medians
     * over the kFastShare fastest blocks, the p99s over the whole run),
     * peak_rss_mb (@p peak_rss_mb) and failed_ops_ratio, and the other
     * way round as run.* and fast.*. Sorts the samples.
     */
    void report(Report &rep, double peak_rss_mb);

  private:
    Latencies lat_;
    std::vector<Block> blocks_;
    Block open_;
    uint64_t ops_ = 0;
    int64_t deployNs_ = 0;
};

// ----------------------------------------------------------------------
// Counters
// ----------------------------------------------------------------------

/**
 * A snapshot of every public counter the layer metrics read. Two
 * snapshots subtract into the counts of the interval between them.
 */
struct Counters {
    // core::Stats
    uint64_t traps = 0;
    uint64_t retags = 0;
    uint64_t retagPages = 0;
    uint64_t prestages = 0;
    uint64_t prestagePages = 0;
    uint64_t ringFlushes = 0;
    uint64_t ringCalls = 0;
    uint64_t wrpkrus = 0;
    uint64_t windowOps = 0;
    uint64_t grantCacheHits = 0;
    uint64_t tagHits = 0;
    uint64_t tagMisses = 0;
    uint64_t evictions = 0;
    uint64_t faultIns = 0;
    uint64_t faultInPages = 0;
    uint64_t dataCopies = 0;
    uint64_t dataCopyBytes = 0;
    uint64_t zeroCopyBytes = 0;
    uint64_t violations = 0;
    uint64_t calls = 0; ///< cross-cubicle calls over all edges
    // hw::AddressSpace: every pkey_mprotect the clock was charged for
    uint64_t hwRetags = 0;
    // hw::CycleClock
    uint64_t cycles = 0;
    /** Calls per edge, keyed "<caller>.<callee>" by role name. */
    std::map<std::string, uint64_t> edges;

    static Counters read(cubicleos::core::System &sys);
    Counters operator-(const Counters &base) const;
};

/**
 * The component's role: its name without a trailing instance number,
 * so "tenant12" and "tenant3" both count as "tenant".
 */
std::string roleOf(const std::string &name);

/**
 * Modelled time of an interval split by cause, in cycles. Each part is
 * a count times its hw::cost constant; `other` is the rest (wire time,
 * modelled syscalls and sleeps).
 */
struct ModelSplit {
    double trap = 0;
    double retag = 0;
    double switches = 0;
    double other = 0;
    double total = 0;
};

/**
 * Splits @p d by cause. @p entries is the number of runAs() switches
 * the benchmark itself made in the interval: they pass through the
 * trampoline but count on no call edge.
 */
ModelSplit splitModel(const Counters &d, uint64_t entries,
                      cubicleos::core::IsolationMode mode);

/**
 * Adds the layer metrics every workload shares (core, hw, model.*,
 * one core.edge.* per call edge seen) and model_us_per_op, normalised
 * per op over the counted interval. Fails the report when the
 * modelled parts do not add up to the total.
 */
void addLayerMetrics(Report &rep, const Counters &d, uint64_t ops,
                     uint64_t entries, cubicleos::core::IsolationMode mode);

// ----------------------------------------------------------------------
// Tracing
// ----------------------------------------------------------------------

/**
 * Spans one buffer keeps at most. Past it a traced run stops tracing,
 * which bounds its memory and the size of the trace file.
 */
inline constexpr std::size_t kMaxSpans = 100'000;

/** One recorded span. Times are steady-clock nanoseconds. */
struct Span {
    const char *name = nullptr;
    int64_t start = 0;
    int64_t end = 0;
    int32_t parent = -1; ///< index in the same buffer, -1 for a root
    uint64_t req = 0;    ///< request (op) the span belongs to
};

/** The spans of one thread; only that thread writes it. */
struct SpanBuffer {
    uint32_t tid = 0;
    uint64_t req = 0; ///< request ID stamped on new spans
    std::vector<Span> spans;
    std::vector<int32_t> open;
};

/**
 * In-memory span recorder. Spans are appended to per-thread buffers
 * and written out once, when the run ends.
 */
class Tracer {
  public:
    /** A new buffer for the calling thread. */
    SpanBuffer *newBuffer();

    /** Writes every span as Chrome trace-event JSON (Perfetto loads it). */
    bool writeChrome(const std::string &path) const;

    /** Self time (span minus its children) summed per span name, ns. */
    std::map<std::string, double> selfTimeByName() const;

    /**
     * Self time per span name for the spans of request @p req in
     * buffer 0, and the duration of that request's root span.
     */
    std::map<std::string, double> selfTimeOfRequest(uint64_t req,
                                                    double *root_ns) const;

    std::size_t spanCount() const;

  private:
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/**
 * RAII span. With a null buffer it records nothing and costs one
 * branch, which is how the untraced run and untraced blocks use it.
 */
class Scope {
  public:
    Scope(SpanBuffer *buf, const char *name) : buf_(buf)
    {
        if (!buf_)
            return;
        idx_ = static_cast<int32_t>(buf_->spans.size());
        Span s;
        s.name = name;
        s.parent = buf_->open.empty() ? -1 : buf_->open.back();
        s.req = buf_->req;
        s.start = nowNs();
        buf_->spans.push_back(s);
        buf_->open.push_back(idx_);
    }
    ~Scope()
    {
        if (!buf_)
            return;
        buf_->spans[static_cast<std::size_t>(idx_)].end = nowNs();
        buf_->open.pop_back();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanBuffer *buf_;
    int32_t idx_ = -1;
};

/** Loop time of a traced run's traced blocks and of the blocks between. */
struct TraceTally {
    int64_t tracedNs = 0;
    uint64_t tracedOps = 0;
    int64_t pairedNs = 0; ///< untraced ops while tracing was live
    uint64_t pairedOps = 0;
    uint64_t sampled = 0; ///< ops whose spans were recorded
};

/**
 * Adds trace.overhead_pct, trace.sampled_ops and the self time per
 * sampled op of each span name in @p span_names, and writes the spans
 * to args.traceOut.
 */
void addTraceResults(Report &rep, const Args &args, const Tracer &tracer,
                     const TraceTally &tally,
                     const std::vector<std::string> &span_names);

// ----------------------------------------------------------------------
// Workloads
// ----------------------------------------------------------------------

/** Runs one workload and fills @p rep. */
void runWeb(const Args &args, Report &rep, bool tenants);
void runSql(const Args &args, Report &rep);
void runXcall(const Args &args, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H_
