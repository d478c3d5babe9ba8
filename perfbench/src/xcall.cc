/**
 * @file
 * The xcall-mt workload: the only multi-threaded one. Each of up to
 * four worker threads (never more than the host's cores) runs in its
 * own cubicle and shares a 256 B buffer with one server cubicle through
 * a GrantWindow. One op is a cross-call into the server that reads and
 * sums the buffer, then the owner's write-reclaim (System::touch) and
 * one seeded byte written into the buffer, so every sum is checked
 * against a value the next call must see.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "libos/grant.h"
#include "common.h"
#include "hw/prng.h"

namespace perfbench {

namespace {

using namespace cubicleos;

constexpr std::size_t kBufBytes = 256;
/** Per thread, one op in this many has its latency kept. */
constexpr uint64_t kSampleEvery = 256;
/** Traced run: ops per traced/untraced block, and span sampling. */
constexpr uint64_t kBlockOps = 4096;
constexpr uint64_t kTraceEvery = 64;

/** The server cubicle: sums a buffer it reaches through a window. */
class ServerComponent : public core::Component {
  public:
    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = "srv";
        s.kind = core::CubicleKind::kIsolated;
        return s;
    }
    void registerExports(core::Exporter &exp) override
    {
        exp.fn<long(const char *, std::size_t)>(
            "sum", [this](const char *p, std::size_t n) {
                sys()->touch(p, n, hw::Access::kRead);
                long s = 0;
                for (std::size_t i = 0; i < n; ++i)
                    s += p[i];
                return s;
            });
    }
};

/** A worker cubicle: owns one buffer, exports nothing. */
class WorkerComponent : public core::Component {
  public:
    explicit WorkerComponent(std::string name) : name_(std::move(name)) {}
    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = name_;
        s.kind = core::CubicleKind::kIsolated;
        return s;
    }
    void registerExports(core::Exporter &) override {}

  private:
    std::string name_;
};

struct Worker {
    core::Cid cid = core::kNoCubicle;
    char *buf = nullptr;
    long expected = 0;
    std::unique_ptr<libos::GrantWindow> win;
    hw::Prng prng;
    // Results.
    uint64_t ops = 0;
    uint64_t bad = 0;
    Latencies lat; ///< read = the cross-call, write = the reclaim
    TraceTally tally;
    std::string error;
};

struct Deployment {
    std::unique_ptr<core::System> sys;
    core::CrossFn<long(const char *, std::size_t)> sum;
    std::vector<Worker> workers;
};

std::unique_ptr<Deployment>
setUp(int threads, uint64_t seed, double *boot_s, double *populate_s)
{
    const int64_t t0 = nowNs();
    auto d = std::make_unique<Deployment>();
    core::SystemConfig cfg;
    cfg.numPages = 8192;
    d->sys = std::make_unique<core::System>(cfg);
    core::System &sys = *d->sys;
    sys.addComponent(std::make_unique<ServerComponent>());
    for (int t = 0; t < threads; ++t)
        sys.addComponent(
            std::make_unique<WorkerComponent>("worker" + std::to_string(t)));
    sys.boot();
    d->sum = sys.resolve<long(const char *, std::size_t)>("srv", "sum");
    const core::Cid srv = sys.cidOf("srv");
    const int64_t t1 = nowNs();

    d->workers.resize(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
        Worker &w = d->workers[static_cast<std::size_t>(t)];
        w.cid = sys.cidOf("worker" + std::to_string(t));
        w.prng = hw::Prng(seed * 0x9E3779B97F4A7C15ull +
                          static_cast<uint64_t>(t) + 1);
        sys.runAs(w.cid, [&] {
            w.buf = reinterpret_cast<char *>(
                sys.monitor()
                    .allocPagesFor(w.cid, 1, mem::PageType::kHeap)
                    .ptr);
            for (std::size_t i = 0; i < kBufBytes; ++i) {
                w.buf[i] = static_cast<char>(w.prng.nextBelow(100));
                w.expected += w.buf[i];
            }
            w.win = std::make_unique<libos::GrantWindow>(
                sys, libos::PeerSet{srv});
            w.win->stage(w.buf, kBufBytes);
            w.win->open(w.win->peers());
        });
    }
    const int64_t t2 = nowNs();
    *boot_s = static_cast<double>(t1 - t0) / 1e9;
    *populate_s = static_cast<double>(t2 - t1) / 1e9;
    return d;
}

void
tearDown(Deployment &d)
{
    for (Worker &w : d.workers) {
        if (w.win)
            d.sys->runAs(w.cid, [&] { w.win->destroy(); });
    }
}

/** One worker thread's loop; exceptions are recorded, never escape. */
void
workerLoop(Deployment &d, Worker &w, SpanBuffer *tb, bool trace,
           const std::atomic<bool> &go, const std::atomic<bool> &stop)
{
    try {
        core::System &sys = *d.sys;
        while (!go.load(std::memory_order_acquire)) {
        }
        sys.runAs(w.cid, [&] {
            for (uint64_t i = 0; !stop.load(std::memory_order_relaxed);
                 ++i) {
                const bool live = trace && tb->spans.size() < kMaxSpans;
                const bool traced = live && (i / kBlockOps) % 2 == 1;
                SpanBuffer *b =
                    traced && i % kTraceEvery == 0 ? tb : nullptr;
                if (b) {
                    b->req = i;
                    ++w.tally.sampled;
                }
                const int64_t t0 = nowNs();
                int64_t t1 = 0, t2 = 0;
                long got = 0;
                {
                    Scope op(b, "loadgen.op");
                    {
                        Scope c(b, "core.xcall.call");
                        got = d.sum(w.buf, kBufBytes);
                    }
                    t1 = nowNs();
                    {
                        Scope r(b, "core.touch.reclaim");
                        sys.touch(w.buf, kBufBytes, hw::Access::kWrite);
                    }
                    t2 = nowNs();
                    if (got != w.expected)
                        ++w.bad;
                    const std::size_t at = w.prng.nextBelow(kBufBytes);
                    const char v = static_cast<char>(w.prng.nextBelow(100));
                    w.expected += v - w.buf[at];
                    w.buf[at] = v;
                }
                ++w.ops;
                if (traced) {
                    w.tally.tracedNs += t2 - t0;
                    ++w.tally.tracedOps;
                    continue;
                }
                if (live) {
                    w.tally.pairedNs += t2 - t0;
                    ++w.tally.pairedOps;
                }
                if (i % kSampleEvery == 0) {
                    w.lat.op.push_back(static_cast<float>(t2 - t0));
                    w.lat.read.push_back(static_cast<float>(t1 - t0));
                    w.lat.write.push_back(static_cast<float>(t2 - t1));
                }
            }
        });
    } catch (const std::exception &e) {
        w.error = e.what();
    }
}

} // namespace

void
runXcall(const Args &args, Report &rep)
{
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    const int threads = static_cast<int>(std::min(4u, cores));
    std::printf("xcall-mt: %d worker threads on %u host cores\n", threads,
                cores);

    std::unique_ptr<Deployment> d;
    measureSetup(rep, [&](double *boot_s, double *populate_s) {
        if (d) {
            tearDown(*d);
            d.reset();
        }
        d = setUp(threads, args.seed, boot_s, populate_s);
    });

    Tracer tracer;
    std::vector<SpanBuffer *> bufs;
    for (int t = 0; t < threads; ++t)
        bufs.push_back(args.trace ? tracer.newBuffer() : nullptr);

    std::atomic<bool> go{false}, stop{false};
    const Counters c0 = Counters::read(*d->sys);
    int64_t start = 0;
    {
        // Releases and joins the workers on every path out of this
        // block, exceptions included.
        struct Pool {
            std::atomic<bool> &go, &stop;
            std::vector<std::thread> threads;
            ~Pool()
            {
                stop.store(true, std::memory_order_relaxed);
                go.store(true, std::memory_order_release);
                for (auto &th : threads)
                    th.join();
            }
        } pool{go, stop, {}};
        start = nowNs();
        for (int t = 0; t < threads; ++t) {
            pool.threads.emplace_back(
                workerLoop, std::ref(*d),
                std::ref(d->workers[static_cast<std::size_t>(t)]),
                bufs[static_cast<std::size_t>(t)], args.trace, std::cref(go),
                std::cref(stop));
        }
        go.store(true, std::memory_order_release);
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            static_cast<int64_t>(args.seconds * 1e9)));
    }
    const int64_t wall = nowNs() - start;
    const Counters c1 = Counters::read(*d->sys);

    uint64_t ops = 0;
    Latencies lat;
    TraceTally tally;
    for (Worker &w : d->workers) {
        if (!w.error.empty())
            rep.fail("worker " + std::to_string(w.cid) + ": " + w.error);
        if (w.bad)
            rep.fail(std::to_string(w.bad) + " wrong sums in worker " +
                     std::to_string(w.cid));
        rep.failed += w.bad + (w.error.empty() ? 0 : 1);
        ops += w.ops;
        tally.tracedNs += w.tally.tracedNs;
        tally.tracedOps += w.tally.tracedOps;
        tally.pairedNs += w.tally.pairedNs;
        tally.pairedOps += w.tally.pairedOps;
        tally.sampled += w.tally.sampled;
        lat.op.insert(lat.op.end(), w.lat.op.begin(), w.lat.op.end());
        lat.read.insert(lat.read.end(), w.lat.read.begin(),
                        w.lat.read.end());
        lat.write.insert(lat.write.end(), w.lat.write.begin(),
                         w.lat.write.end());
    }
    rep.attempted += std::max<uint64_t>(ops, 1);
    if (ops == 0)
        rep.fail("no op completed");
    std::printf("ops %llu in %.3f s wall, %zu latency samples\n",
                static_cast<unsigned long long>(ops),
                static_cast<double>(wall) / 1e9, lat.op.size());

    // Every thread runs for the whole time: the run is one block.
    BlockedRun run;
    run.addBlock(ops, wall, lat);
    run.report(rep, peakRssMb());
    // Each worker entered its cubicle once with runAs.
    addLayerMetrics(rep, c1 - c0, ops, static_cast<uint64_t>(threads),
                    d->sys->mode());

    if (args.trace) {
        addTraceResults(rep, args, tracer, tally,
                        {"loadgen.op", "core.xcall.call",
                         "core.touch.reclaim"});
        // Mean span durations: the per-call costs the core layer owns.
        const auto self = tracer.selfTimeByName();
        auto mean = [&](const char *name) {
            const auto it = self.find(name);
            return it == self.end() || tally.sampled == 0
                       ? 0.0
                       : it->second / static_cast<double>(tally.sampled);
        };
        rep.add("core.xcall.call_ns", mean("core.xcall.call"), "ns");
        rep.add("core.touch.reclaim_ns", mean("core.touch.reclaim"), "ns");
    }
    tearDown(*d);
}

} // namespace perfbench
