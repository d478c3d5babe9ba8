#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

#include "hw/cycles.h"

namespace perfbench {

using cubicleos::core::IsolationMode;
using cubicleos::core::System;
namespace cost = cubicleos::hw::cost;

// ----------------------------------------------------------------------
// Report
// ----------------------------------------------------------------------

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not a finite number");
        value = 0;
    }
    metrics.push_back(Metric{name, value, unit});
}

void
Report::fail(const std::string &why)
{
    if (errors.size() < 20)
        errors.push_back(why);
}

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += (failed == 0 && errors.empty()) ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonString(metrics[i].name) + ": {\"value\": " +
               jsonNumber(metrics[i].value) +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    out += "}, \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonString(errors[i]);
    }
    return out + "]}";
}

void
BlockedRun::add(int64_t deploy_ns, int64_t read_ns, int64_t write_ns)
{
    ++open_.ops;
    open_.deployNs += deploy_ns;
    ++ops_;
    deployNs_ += deploy_ns;
    lat_.op.push_back(static_cast<float>(deploy_ns));
    if (read_ns >= 0)
        lat_.read.push_back(static_cast<float>(read_ns));
    if (write_ns >= 0)
        lat_.write.push_back(static_cast<float>(write_ns));
}

void
BlockedRun::close()
{
    if (open_.ops > 0) {
        std::vector<float> ops(lat_.op.begin() +
                                   static_cast<std::ptrdiff_t>(open_.op),
                               lat_.op.end());
        open_.p50 = static_cast<float>(quantile(ops, 0.5));
        blocks_.push_back(open_);
    }
    open_ = Block{};
    open_.op = lat_.op.size();
    open_.read = lat_.read.size();
    open_.write = lat_.write.size();
}

void
BlockedRun::addBlock(uint64_t ops, int64_t deploy_ns, const Latencies &lat)
{
    close();
    for (auto [from, to] : {std::pair{&lat.op, &lat_.op},
                            std::pair{&lat.read, &lat_.read},
                            std::pair{&lat.write, &lat_.write}})
        to->insert(to->end(), from->begin(), from->end());
    open_.ops = ops;
    open_.deployNs = deploy_ns;
    ops_ += ops;
    deployNs_ += deploy_ns;
    close();
}

void
BlockedRun::report(Report &rep, double peak_rss_mb)
{
    // Pool the samples of the fastest blocks.
    std::vector<std::size_t> order(blocks_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return blocks_[a].p50 < blocks_[b].p50;
    });
    const std::size_t k = std::min(
        order.size(),
        std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(
                                     kFastShare *
                                     static_cast<double>(order.size())))));
    Latencies pool;
    uint64_t ops = 0;
    int64_t deployNs = 0;
    for (std::size_t r = 0; r < k; ++r) {
        const std::size_t i = order[r];
        const Block &b = blocks_[i];
        // The block's samples end where the next block's start.
        const Block &next = i + 1 < blocks_.size() ? blocks_[i + 1] : open_;
        auto take = [](const std::vector<float> &from, std::size_t begin,
                       std::size_t end, std::vector<float> &to) {
            to.insert(to.end(),
                      from.begin() + static_cast<std::ptrdiff_t>(begin),
                      from.begin() + static_cast<std::ptrdiff_t>(end));
        };
        take(lat_.op, b.op, next.op, pool.op);
        take(lat_.read, b.read, next.read, pool.read);
        take(lat_.write, b.write, next.write, pool.write);
        ops += b.ops;
        deployNs += b.deployNs;
    }
    auto rate = [](uint64_t n, int64_t ns) {
        return ns > 0 ? static_cast<double>(n) * 1e9 / static_cast<double>(ns)
                      : 0.0;
    };
    auto us = [](std::vector<float> &v, double q) {
        return quantile(v, q) / 1e3;
    };
    // The rate and the medians over the fast blocks, the tails over the
    // whole run (see kFastShare).
    rep.add("ops_per_s", rate(ops, deployNs), "1/s");
    rep.add("p50_us", us(pool.op, 0.5), "us");
    rep.add("p99_us", us(lat_.op, 0.99), "us");
    rep.add("read_p50_us", us(pool.read, 0.5), "us");
    rep.add("read_p99_us", us(lat_.read, 0.99), "us");
    rep.add("write_p50_us", us(pool.write, 0.5), "us");
    rep.add("write_p99_us", us(lat_.write, 0.99), "us");
    rep.add("peak_rss_mb", peak_rss_mb, "MB");
    rep.add("failed_ops_ratio",
            static_cast<double>(rep.failed) /
                static_cast<double>(std::max<uint64_t>(rep.attempted, 1)),
            "ratio");

    // The same figures the other way round, for the log and results file.
    rep.add("run.blocks", static_cast<double>(blocks_.size()), "count");
    rep.add("run.fast_blocks", static_cast<double>(k), "count");
    rep.add("run.ops_per_s", rate(ops_, deployNs_), "1/s");
    rep.add("run.p50_us", us(lat_.op, 0.5), "us");
    rep.add("run.read_p50_us", us(lat_.read, 0.5), "us");
    rep.add("run.write_p50_us", us(lat_.write, 0.5), "us");
    rep.add("fast.p99_us", us(pool.op, 0.99), "us");
    rep.add("fast.read_p99_us", us(pool.read, 0.99), "us");
    rep.add("fast.write_p99_us", us(pool.write, 0.99), "us");
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ----------------------------------------------------------------------
// Counters and the modelled-time split
// ----------------------------------------------------------------------

std::string
roleOf(const std::string &name)
{
    std::size_t end = name.size();
    while (end > 0 && std::isdigit(static_cast<unsigned char>(name[end - 1])))
        --end;
    return end == 0 ? name : name.substr(0, end);
}

Counters
Counters::read(System &sys)
{
    const auto &st = sys.stats();
    Counters c;
    c.traps = st.traps();
    c.retags = st.retags();
    c.retagPages = st.retagPages();
    c.prestages = st.prestages();
    c.prestagePages = st.prestagePages();
    c.ringFlushes = st.ringFlushes();
    c.ringCalls = st.ringCalls();
    c.wrpkrus = st.wrpkrus();
    c.windowOps = st.windowOps();
    c.grantCacheHits = st.grantCacheHits();
    c.tagHits = st.tagHits();
    c.tagMisses = st.tagMisses();
    c.evictions = st.evictions();
    c.faultIns = st.faultIns();
    c.faultInPages = st.faultInPages();
    c.dataCopies = st.dataCopies();
    c.dataCopyBytes = st.dataCopyBytes();
    c.zeroCopyBytes = st.zeroCopyBytes();
    c.violations = st.violations();
    c.calls = st.totalCalls();
    c.hwRetags = sys.monitor().space().retagCount();
    c.cycles = sys.clock().read();
    for (const auto &e : st.edges()) {
        const std::string key =
            roleOf(sys.monitor().cubicle(e.caller).name) + "." +
            roleOf(sys.monitor().cubicle(e.callee).name);
        c.edges[key] += e.count;
    }
    return c;
}

Counters
Counters::operator-(const Counters &b) const
{
    Counters d;
    d.traps = traps - b.traps;
    d.retags = retags - b.retags;
    d.retagPages = retagPages - b.retagPages;
    d.prestages = prestages - b.prestages;
    d.prestagePages = prestagePages - b.prestagePages;
    d.ringFlushes = ringFlushes - b.ringFlushes;
    d.ringCalls = ringCalls - b.ringCalls;
    d.wrpkrus = wrpkrus - b.wrpkrus;
    d.windowOps = windowOps - b.windowOps;
    d.grantCacheHits = grantCacheHits - b.grantCacheHits;
    d.tagHits = tagHits - b.tagHits;
    d.tagMisses = tagMisses - b.tagMisses;
    d.evictions = evictions - b.evictions;
    d.faultIns = faultIns - b.faultIns;
    d.faultInPages = faultInPages - b.faultInPages;
    d.dataCopies = dataCopies - b.dataCopies;
    d.dataCopyBytes = dataCopyBytes - b.dataCopyBytes;
    d.zeroCopyBytes = zeroCopyBytes - b.zeroCopyBytes;
    d.violations = violations - b.violations;
    d.calls = calls - b.calls;
    d.hwRetags = hwRetags - b.hwRetags;
    d.cycles = cycles - b.cycles;
    for (const auto &[k, v] : edges) {
        const auto it = b.edges.find(k);
        const uint64_t diff = v - (it == b.edges.end() ? 0 : it->second);
        if (diff)
            d.edges[k] = diff;
    }
    return d;
}

ModelSplit
splitModel(const Counters &d, uint64_t entries, IsolationMode mode)
{
    // Every trampoline pass is one CrossCallGuard: each call counted on
    // an edge outside a ring, one per ring flush, and the benchmark's
    // own runAs() entries. Each charges trampoline + stack switch on
    // the way in and again on the way out.
    const uint64_t guards = d.calls - d.ringCalls + d.ringFlushes + entries;
    ModelSplit m;
    m.trap = static_cast<double>(d.traps * cost::kFaultTrap);
    m.retag = static_cast<double>(d.hwRetags * cost::kPkeyMprotect);
    m.switches = static_cast<double>(d.wrpkrus * cost::kWrpkru);
    if (mode >= IsolationMode::kNoMpk) {
        m.switches += static_cast<double>(
            guards * 2 * (cost::kTrampoline + cost::kStackSwitch));
    }
    m.total = static_cast<double>(d.cycles);
    m.other = m.total - m.trap - m.retag - m.switches;
    return m;
}

namespace {

double
perOp(uint64_t n, uint64_t ops)
{
    return ops ? static_cast<double>(n) / static_cast<double>(ops) : 0;
}

double
cyclesToUs(double cycles)
{
    return cycles / cost::kCpuGhz / 1000.0;
}

} // namespace

void
addLayerMetrics(Report &rep, const Counters &d, uint64_t ops,
                uint64_t entries, IsolationMode mode)
{
    rep.add("core.xcall.calls_per_op", perOp(d.calls, ops), "count");
    rep.add("core.xcall.wrpkru_per_op", perOp(d.wrpkrus, ops), "count");
    rep.add("core.grant_cache.hits_per_op", perOp(d.grantCacheHits, ops),
            "count");
    rep.add("core.trap.traps_per_op", perOp(d.traps, ops), "count");
    rep.add("core.trap.retags_per_op", perOp(d.retags, ops), "count");
    rep.add("core.trap.retag_pages_per_op", perOp(d.retagPages, ops),
            "count");
    rep.add("core.trap.prestage_pages_per_op", perOp(d.prestagePages, ops),
            "count");
    rep.add("core.window.ops_per_op", perOp(d.windowOps, ops), "count");
    rep.add("core.ring.calls_per_flush", perOp(d.ringCalls, d.ringFlushes),
            "count");
    const uint64_t lookups = d.tagHits + d.tagMisses;
    rep.add("core.keytable.tag_hit_pct",
            lookups ? 100.0 * static_cast<double>(d.tagHits) /
                          static_cast<double>(lookups)
                    : 100.0,
            "%");
    rep.add("core.keytable.evictions_per_op", perOp(d.evictions, ops),
            "count");
    rep.add("core.keytable.fault_in_pages_per_op",
            perOp(d.faultInPages, ops), "count");
    rep.add("hw.pkey_mprotect_per_op", perOp(d.hwRetags, ops), "count");
    rep.add("libos.copies_per_op", perOp(d.dataCopies, ops), "count");
    rep.add("libos.copy_bytes_per_op", perOp(d.dataCopyBytes, ops), "B");
    rep.add("libos.zero_copy_bytes_per_op", perOp(d.zeroCopyBytes, ops),
            "B");
    for (const auto &[edge, n] : d.edges)
        rep.add("core.edge." + edge, perOp(n, ops), "count");

    if (d.violations != 0) {
        rep.fail(std::to_string(d.violations) +
                 " isolation violations in the counted window");
    }

    const ModelSplit m = splitModel(d, entries, mode);
    const double n = ops ? static_cast<double>(ops) : 1.0;
    rep.add("model_us_per_op", cyclesToUs(m.total) / n, "us");
    rep.add("model.trap_us", cyclesToUs(m.trap) / n, "us");
    rep.add("model.retag_us", cyclesToUs(m.retag) / n, "us");
    rep.add("model.switch_us", cyclesToUs(m.switches) / n, "us");
    rep.add("model.other_us", cyclesToUs(m.other) / n, "us");
    // The parts are defined to sum to the total; a negative rest means
    // a count above over-attributes (the split no longer matches what
    // the clock was charged for).
    const double sum = m.trap + m.retag + m.switches + m.other;
    if (m.other < 0 || std::fabs(sum - m.total) > 1e-9 * (m.total + 1)) {
        rep.fail("modelled time split does not add up: trap " +
                 std::to_string(m.trap) + " + retag " +
                 std::to_string(m.retag) + " + switch " +
                 std::to_string(m.switches) + " + other " +
                 std::to_string(m.other) + " vs total " +
                 std::to_string(m.total) + " cycles");
    }
}

// ----------------------------------------------------------------------
// Tracer
// ----------------------------------------------------------------------

SpanBuffer *
Tracer::newBuffer()
{
    std::lock_guard<std::mutex> g(mu_);
    buffers_.push_back(std::make_unique<SpanBuffer>());
    buffers_.back()->tid = static_cast<uint32_t>(buffers_.size());
    return buffers_.back().get();
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> g(mu_);
    std::size_t n = 0;
    for (const auto &b : buffers_)
        n += b->spans.size();
    return n;
}

namespace {

/** Self time of every span of @p b: its duration minus its children's. */
std::vector<double>
selfTimes(const SpanBuffer &b)
{
    std::vector<double> self(b.spans.size());
    for (std::size_t i = 0; i < b.spans.size(); ++i)
        self[i] = static_cast<double>(b.spans[i].end - b.spans[i].start);
    for (const Span &s : b.spans) {
        if (s.parent >= 0) {
            self[static_cast<std::size_t>(s.parent)] -=
                static_cast<double>(s.end - s.start);
        }
    }
    return self;
}

} // namespace

std::map<std::string, double>
Tracer::selfTimeByName() const
{
    std::lock_guard<std::mutex> g(mu_);
    std::map<std::string, double> out;
    for (const auto &b : buffers_) {
        const auto self = selfTimes(*b);
        for (std::size_t i = 0; i < b->spans.size(); ++i)
            out[b->spans[i].name] += self[i];
    }
    return out;
}

std::map<std::string, double>
Tracer::selfTimeOfRequest(uint64_t req, double *root_ns) const
{
    std::lock_guard<std::mutex> g(mu_);
    std::map<std::string, double> out;
    *root_ns = 0;
    if (buffers_.empty())
        return out;
    const SpanBuffer &b = *buffers_.front();
    const auto self = selfTimes(b);
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
        const Span &s = b.spans[i];
        if (s.req != req)
            continue;
        out[s.name] += self[i];
        if (s.parent < 0)
            *root_ns += static_cast<double>(s.end - s.start);
    }
    return out;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::lock_guard<std::mutex> g(mu_);
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    int64_t origin = INT64_MAX;
    for (const auto &b : buffers_) {
        for (const Span &s : b->spans)
            origin = std::min(origin, s.start);
    }
    std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
    bool first = true;
    for (const auto &b : buffers_) {
        for (std::size_t i = 0; i < b->spans.size(); ++i) {
            const Span &s = b->spans[i];
            const std::string name = s.name;
            const std::string cat = name.substr(0, name.find('.'));
            std::fprintf(
                f,
                "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                "\"args\": {\"req\": %llu, \"id\": %zu, \"parent\": %d}}",
                first ? "" : ",\n", name.c_str(), cat.c_str(),
                static_cast<double>(s.start - origin) / 1e3,
                static_cast<double>(s.end - s.start) / 1e3, b->tid,
                static_cast<unsigned long long>(s.req), i, s.parent);
            first = false;
        }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

void
addTraceResults(Report &rep, const Args &args, const Tracer &tracer,
                const TraceTally &t,
                const std::vector<std::string> &span_names)
{
    // Traced blocks against the untraced blocks between them, so drift
    // in the host's speed over the run does not read as overhead.
    const double plain = static_cast<double>(t.pairedNs) /
                         static_cast<double>(std::max<uint64_t>(t.pairedOps, 1));
    const double traced = t.tracedOps ? static_cast<double>(t.tracedNs) /
                                            static_cast<double>(t.tracedOps)
                                      : plain;
    rep.add("trace.overhead_pct", 100.0 * (traced / plain - 1.0), "%");
    rep.add("trace.sampled_ops", static_cast<double>(t.sampled), "count");
    const auto self = tracer.selfTimeByName();
    for (const std::string &name : span_names) {
        const auto it = self.find(name);
        const double ns = it == self.end() ? 0 : it->second;
        rep.add("trace.self_us." + name,
                t.sampled ? ns / 1e3 / static_cast<double>(t.sampled) : 0,
                "us");
    }
    if (!args.traceOut.empty() && !tracer.writeChrome(args.traceOut))
        rep.fail("cannot write trace " + args.traceOut);
    std::printf("traced ops %llu (%llu sampled), %zu spans\n",
                static_cast<unsigned long long>(t.tracedOps),
                static_cast<unsigned long long>(t.sampled),
                tracer.spanCount());
}

} // namespace perfbench
