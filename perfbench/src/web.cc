/**
 * @file
 * The web workloads: the networked NGINX deployment driven through its
 * public API, one GET per op on a fresh connection.
 *
 * The deployment is assembled exactly as the in-tree harnesses do
 * (libos stack + NginxComponent(s) + finishBoot), but the benchmark
 * owns the host-side client: it times only the runAs(nginx,
 * nginx_poll) rounds as deployment wall time, and everything the
 * client stack and response assembly do as loadgen. No fixed
 * per-request modelled cost is charged.
 *
 *  - web-tenants: 26 tenants (64 cubicles on 16 physical tags, 4
 *    dynamic), 8 files of 256 B-16 KB each, 80% of requests to 6 hot
 *    tenants, copy body path.
 *  - web-bulk: the single-tenant Fig. 5 deployment serving 64 KB-2 MB
 *    files through zero-copy sendfile.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "apps/httpd/httpd.h"
#include "hw/prng.h"
#include "libos/netdev.h"
#include "libos/stack.h"
#include "libos/tcpip.h"
#include "serial.h"

namespace perfbench {

namespace {

using namespace cubicleos;

constexpr uint32_t kServerIp = 0x0A000001;
constexpr uint32_t kClientIp = 0x0A000002;

/**
 * The bytes NginxComponent::createFile writes for @p path: 'A' + (offset
 * + a per-byte PRNG draw in [0,3)) mod 26, the PRNG seeded with the hash
 * of the full path.
 */
std::string
expectedBody(const std::string &path, std::size_t size)
{
    hw::Prng prng(std::hash<std::string>{}(path));
    std::string out(size, '\0');
    for (std::size_t i = 0; i < size; ++i)
        out[i] = static_cast<char>('A' + ((i + prng.nextBelow(3)) % 26));
    return out;
}

/** Stratified log-uniform size: the k-th of n strata of [lo, hi]. */
std::size_t
stratifiedSize(hw::Prng &prng, int k, int n, double lo, double hi)
{
    const double u = static_cast<double>(prng.nextBelow(1u << 20)) /
                     static_cast<double>(1u << 20);
    const double t = (k + u) / n;
    return static_cast<std::size_t>(
        std::exp(std::log(lo) + t * (std::log(hi) - std::log(lo))));
}

/** Fisher-Yates shuffle driven by the workload PRNG. */
template <typename T>
void
shuffle(std::vector<T> &v, hw::Prng &prng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[prng.nextBelow(i)]);
}

struct File {
    int tenant = 0;
    std::string urlPath;  ///< path in the request line
    std::string fullPath; ///< path in the shared RAMFS
    std::string body;     ///< expected content
};

struct Request {
    int tenant = 0;
    int file = 0; ///< index into files_
};

class WebWorkload : public SerialWorkload {
  public:
    explicit WebWorkload(bool tenants) : multi_(tenants) {}

    void setup(uint64_t seed, double *boot_s, double *populate_s) override;
    bool op(SpanBuffer *tb, OpSample &s, Report &rep) override;
    core::System &sys() override { return *sys_; }
    uint64_t entries() const override { return entries_; }
    void beginCount() override;
    void endCount() override;
    void addLayerMetrics(Report &rep, uint64_t ops) override;
    void addSampleMetrics(Report &rep, const Tracer &tracer) override;

  private:
    void makeFiles(uint64_t seed);
    Request nextRequest();
    /** One event-loop round; @return frames moved in both directions. */
    uint64_t pump(int tenant, SpanBuffer *tb, OpSample &s, bool response);

    struct Snapshot {
        libos::TcpStats tcp;
        uint64_t frames = 0;
        uint64_t rounds = 0;
        uint64_t bodyBytes = 0;
        uint64_t serverErrors = 0;
    };
    Snapshot snapshot() const;

    bool multi_;
    std::vector<File> files_;
    std::vector<int> hot_;  ///< web-tenants: the hot tenants
    std::vector<int> cold_; ///< web-tenants: the rest

    // Deployment (rebuilt by every setup).
    std::unique_ptr<core::System> sys_;
    std::unique_ptr<libos::FrameChannel> wire_;
    std::vector<httpd::NginxComponent *> servers_;
    std::vector<core::CrossFn<int64_t(uint64_t)>> polls_;
    std::vector<core::Cid> cids_;

    // Load generator.
    std::unique_ptr<libos::TcpIpStack> client_;
    hw::Prng reqPrng_;
    std::vector<Request> pending_;
    uint64_t now_ = 0;
    uint64_t entries_ = 0;
    uint64_t rounds_ = 0;
    uint64_t bodyBytes_ = 0;
    std::vector<char> rxBuf_ = std::vector<char>(65536);
    std::string response_;

    Snapshot begin_, end_;
    std::map<uint64_t, int64_t> tracedDeployNs_;
};

void
WebWorkload::makeFiles(uint64_t seed)
{
    files_.clear();
    hw::Prng prng(seed * 0x9E3779B97F4A7C15ull + 11);
    if (multi_) {
        constexpr int kTenants = 26, kFiles = 8;
        for (int t = 0; t < kTenants; ++t) {
            for (int k = 0; k < kFiles; ++k) {
                File f;
                f.tenant = t;
                f.urlPath = "/p" + std::to_string(k) + ".html";
                f.fullPath = "/tenant" + std::to_string(t) + f.urlPath;
                f.body = expectedBody(
                    f.fullPath, stratifiedSize(prng, k, kFiles, 256, 16384));
                files_.push_back(std::move(f));
            }
        }
        std::vector<int> all(kTenants);
        for (int t = 0; t < kTenants; ++t)
            all[static_cast<std::size_t>(t)] = t;
        shuffle(all, prng);
        hot_.assign(all.begin(), all.begin() + 6);
        cold_.assign(all.begin() + 6, all.end());
    } else {
        // 64 strata keep the largest file, which sets p99, within 6%
        // of 2 MB whatever the seed.
        constexpr int kFiles = 64;
        for (int k = 0; k < kFiles; ++k) {
            File f;
            f.urlPath = "/f" + std::to_string(k) + ".bin";
            f.fullPath = f.urlPath;
            f.body = expectedBody(
                f.fullPath,
                stratifiedSize(prng, k, kFiles, 64 * 1024, 2 * 1024 * 1024));
            files_.push_back(std::move(f));
        }
    }
}

void
WebWorkload::setup(uint64_t seed, double *boot_s, double *populate_s)
{
    if (files_.empty())
        makeFiles(seed);
    // Tear the previous deployment down before building the next.
    client_.reset();
    servers_.clear();
    polls_.clear();
    cids_.clear();
    sys_.reset();
    wire_.reset();

    const int64_t t0 = nowNs();
    core::SystemConfig cfg;
    if (multi_) {
        // The in-tree multi-tenant deployment: tag virtualisation on,
        // 16 physical tags, 4 of them in the dynamic pool. The address
        // space keeps the SystemConfig default size: the counts match
        // the harness's 64k pages at a quarter of the memory, and the
        // whole-space eviction sweeps still dominate a request.
        cfg.numPages = 16384;
        cfg.virtualizeTags = true;
        cfg.physTagBudget = hw::kNumPhysPkeys;
        cfg.dynamicTags = 4;
    } else {
        cfg.numPages = 32768;
    }
    sys_ = std::make_unique<core::System>(cfg);
    wire_ = std::make_unique<libos::FrameChannel>(&sys_->clock());
    libos::StackOptions opts;
    opts.withNet = true;
    opts.wire = wire_.get();
    libos::addLibosComponents(*sys_, opts);
    std::vector<std::string> names;
    if (multi_) {
        for (int t = 0; t < 26; ++t) {
            const std::string srv = "tenant" + std::to_string(t);
            const std::string log = "tlog" + std::to_string(t);
            servers_.push_back(static_cast<httpd::NginxComponent *>(
                &sys_->addComponent(std::make_unique<httpd::NginxComponent>(
                    srv, static_cast<uint16_t>(8000 + t),
                    /*sendfile=*/false, "/" + srv, log))));
            sys_->addComponent(
                std::make_unique<httpd::TenantLogComponent>(log));
            names.push_back(srv);
        }
    } else {
        servers_.push_back(static_cast<httpd::NginxComponent *>(
            &sys_->addComponent(std::make_unique<httpd::NginxComponent>(
                80, /*sendfile=*/true))));
        names.push_back("nginx");
    }
    libos::finishBoot(*sys_);
    for (std::size_t t = 0; t < names.size(); ++t) {
        cids_.push_back(sys_->cidOf(names[t]));
        polls_.push_back(
            sys_->resolve<int64_t(uint64_t)>(names[t], "nginx_poll"));
        if (multi_)
            servers_[t]->makeDir("/" + names[t]);
    }
    const int64_t t1 = nowNs();

    for (const File &f : files_) {
        servers_[static_cast<std::size_t>(f.tenant)]->createFile(
            f.fullPath, f.body.size());
    }
    const int64_t t2 = nowNs();
    *boot_s = static_cast<double>(t1 - t0) / 1e9;
    *populate_s = static_cast<double>(t2 - t1) / 1e9;

    libos::TcpConfig ccfg;
    ccfg.ipAddr = kClientIp;
    client_ = std::make_unique<libos::TcpIpStack>(ccfg);
    reqPrng_ = hw::Prng(seed * 0xD1B54A32D192ED03ull + 7);
    pending_.clear();
    now_ = 0;
    entries_ = rounds_ = bodyBytes_ = 0;
}

Request
WebWorkload::nextRequest()
{
    if (pending_.empty()) {
        // One block of requests with the workload's exact mix, in
        // seeded order, so every window of whole blocks sees the same
        // proportions whatever the seed.
        if (multi_) {
            for (int h : hot_) {
                for (int r = 0; r < 4; ++r)
                    pending_.push_back(Request{h, 0});
            }
            std::vector<int> cold = cold_;
            shuffle(cold, reqPrng_);
            for (int r = 0; r < 6; ++r)
                pending_.push_back(Request{cold[static_cast<std::size_t>(r)],
                                           0});
            for (Request &q : pending_) {
                q.file = q.tenant * 8 +
                         static_cast<int>(reqPrng_.nextBelow(8));
            }
        } else {
            for (int k = 0; k < static_cast<int>(files_.size()); ++k)
                pending_.push_back(Request{0, k});
        }
        shuffle(pending_, reqPrng_);
    }
    const Request r = pending_.back();
    pending_.pop_back();
    return r;
}

uint64_t
WebWorkload::pump(int tenant, SpanBuffer *tb, OpSample &s, bool response)
{
    const std::size_t t = static_cast<std::size_t>(tenant);
    uint64_t frames = 0;
    now_ += 1'000'000; // 1 ms of simulated time per round
    {
        Scope c(tb, "loadgen.client");
        client_->tick(now_);
        client_->pollOutput([&](const uint8_t *p, std::size_t n) {
            wire_->hostSend(libos::FrameChannel::Frame(p, p + n));
            ++frames;
        });
    }
    {
        Scope p(tb, "apps.httpd.poll");
        const int64_t t0 = nowNs();
        sys_->runAs(cids_[t], [&] { polls_[t](now_); });
        const int64_t dt = nowNs() - t0;
        s.deployNs += dt;
        (response ? s.writeNs : s.readNs) += dt;
    }
    ++entries_;
    ++rounds_;
    {
        Scope c(tb, "loadgen.client");
        while (auto frame = wire_->hostRecv()) {
            client_->input(frame->data(), frame->size());
            ++frames;
        }
    }
    return frames;
}

bool
WebWorkload::op(SpanBuffer *tb, OpSample &s, Report &rep)
{
    const Request r = nextRequest();
    const File &f = files_[static_cast<std::size_t>(r.file)];
    const uint16_t port =
        static_cast<uint16_t>(multi_ ? 8000 + r.tenant : 80);
    s.readNs = s.writeNs = 0;

    Scope root(tb, "loadgen.request");
    int fd = -1;
    std::string request;
    {
        Scope c(tb, "loadgen.client");
        fd = client_->socket();
        client_->connect(fd, kServerIp, port);
        request = "GET " + f.urlPath + " HTTP/1.1\r\nHost: " +
                  (multi_ ? "tenant" + std::to_string(r.tenant)
                          : std::string("bench")) +
                  "\r\n\r\n";
        response_.clear();
        response_.reserve(f.body.size() + 256);
    }
    bool sent = false;
    bool done = false;
    std::size_t headerEnd = std::string::npos;
    std::size_t contentLength = 0;
    for (int round = 0; round < 100000 && !done; ++round) {
        pump(r.tenant, tb, s, !response_.empty());
        Scope c(tb, "loadgen.client");
        if (!sent && client_->isEstablished(fd)) {
            client_->send(fd, request.data(), request.size());
            sent = true;
        }
        for (;;) {
            const int64_t n =
                client_->recv(fd, rxBuf_.data(), rxBuf_.size());
            if (n <= 0) {
                done = done || n == 0; // orderly close
                break;
            }
            response_.append(rxBuf_.data(), static_cast<std::size_t>(n));
        }
        if (headerEnd == std::string::npos) {
            headerEnd = response_.find("\r\n\r\n");
            if (headerEnd != std::string::npos) {
                const auto cl = response_.find("Content-Length: ");
                if (cl != std::string::npos && cl < headerEnd) {
                    contentLength = static_cast<std::size_t>(std::strtoull(
                        response_.c_str() + cl + 16, nullptr, 10));
                }
            }
        }
        if (headerEnd != std::string::npos &&
            response_.size() >= headerEnd + 4 + contentLength)
            done = true;
    }
    {
        Scope c(tb, "loadgen.client");
        client_->close(fd);
    }
    // FIN exchange: pump until a round moves no frame either way.
    for (int round = 0; round < 8; ++round) {
        if (pump(r.tenant, tb, s, true) == 0)
            break;
    }
    if (tb)
        tracedDeployNs_[tb->req] = s.deployNs;

    Scope check(tb, "loadgen.check");
    const char *why = nullptr;
    if (response_.compare(0, 13, "HTTP/1.1 200 ") != 0)
        why = "status is not 200";
    else if (headerEnd == std::string::npos)
        why = "no header end";
    else if (contentLength != f.body.size())
        why = "wrong Content-Length";
    else if (response_.size() != headerEnd + 4 + contentLength)
        why = "body length differs";
    else if (std::memcmp(response_.data() + headerEnd + 4, f.body.data(),
                         f.body.size()) != 0)
        why = "body bytes differ from the file's PRNG pattern";
    if (why) {
        rep.fail(std::string("GET ") + f.fullPath + ": " + why);
        return false;
    }
    bodyBytes_ += f.body.size();
    return true;
}

WebWorkload::Snapshot
WebWorkload::snapshot() const
{
    Snapshot s;
    s.tcp = client_->stats();
    s.frames = wire_->framesCarried();
    s.rounds = rounds_;
    s.bodyBytes = bodyBytes_;
    for (const auto *srv : servers_)
        s.serverErrors += srv->stats().errors;
    return s;
}

void
WebWorkload::beginCount()
{
    begin_ = snapshot();
}

void
WebWorkload::endCount()
{
    end_ = snapshot();
}

void
WebWorkload::addLayerMetrics(Report &rep, uint64_t ops)
{
    const double n = static_cast<double>(ops);
    auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
    rep.add("libos.tcpip.client_segs_per_op",
            d(end_.tcp.segsIn + end_.tcp.segsOut,
              begin_.tcp.segsIn + begin_.tcp.segsOut) / n,
            "count");
    rep.add("libos.tcpip.retransmits_per_op",
            d(end_.tcp.retransmits, begin_.tcp.retransmits) / n, "count");
    rep.add("libos.netdev.frames_per_op", d(end_.frames, begin_.frames) / n,
            "count");
    rep.add("apps.httpd.poll_rounds_per_op",
            d(end_.rounds, begin_.rounds) / n, "count");
    rep.add("apps.httpd.body_bytes_per_op",
            d(end_.bodyBytes, begin_.bodyBytes) / n, "B");
    if (end_.serverErrors != begin_.serverErrors)
        rep.fail("the server counted request errors");
}

void
WebWorkload::addSampleMetrics(Report &rep, const Tracer &tracer)
{
    if (tracedDeployNs_.empty())
        return;
    // The traced request with the median deployment time.
    std::vector<std::pair<int64_t, uint64_t>> byTime;
    for (const auto &[req, ns] : tracedDeployNs_)
        byTime.emplace_back(ns, req);
    std::sort(byTime.begin(), byTime.end());
    const auto [deployNs, req] = byTime[byTime.size() / 2];

    double rootNs = 0;
    const auto self = tracer.selfTimeOfRequest(req, &rootNs);
    double sum = 0;
    std::printf("sampled request %llu: %.1f us total, %.1f us in the "
                "deployment\n",
                static_cast<unsigned long long>(req), rootNs / 1e3,
                static_cast<double>(deployNs) / 1e3);
    for (const auto &[name, ns] : self) {
        std::printf("  self %-20s %10.1f us\n", name.c_str(), ns / 1e3);
        sum += ns;
    }
    const auto poll = self.find("apps.httpd.poll");
    const double pollNs = poll == self.end() ? 0 : poll->second;
    rep.add("trace.sample_deploy_accounted_pct",
            100.0 * pollNs / static_cast<double>(deployNs), "%");
    rep.add("trace.sample_request_accounted_pct", 100.0 * sum / rootNs,
            "%");
}

} // namespace

void
runWeb(const Args &args, Report &rep, bool tenants)
{
    WebWorkload w(tenants);
    SerialPlan plan;
    // Whole request blocks: 30 for web-tenants, 64 for web-bulk.
    plan.warmupOps = tenants ? 300 : 64;
    plan.countedOps = tenants ? 1200 : 128;
    plan.blockOps = tenants ? 30 : 16;
    plan.mixOps = tenants ? 30 : 64;
    plan.traceEvery = 1;
    plan.spanNames = {"loadgen.request", "loadgen.client", "loadgen.check",
                      "apps.httpd.poll"};
    runSerial(args, plan, w, rep);
}

} // namespace perfbench
