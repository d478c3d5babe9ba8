/**
 * @file
 * The sql-mixed workload: the Fig. 8 seven-cubicle minisql deployment
 * (baselines::SqliteDeployment::makeCubicles) with a 64-page pager
 * cache over a table about three times that size. One op is one
 * statement: 70% point SELECT by key, 10% 50-row range count, 20%
 * autocommit UPDATE, in seeded order. Every result is checked against
 * a shadow key -> value map the benchmark keeps.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "apps/minisql/db.h"
#include "baselines/deployments.h"
#include "hw/prng.h"
#include "serial.h"

namespace perfbench {

namespace {

using namespace cubicleos;

constexpr std::size_t kCachePages = 64;
/** Rows of 60-byte text: about 3x kCachePages of table pages. */
constexpr int64_t kRows = 4200;
constexpr int64_t kRange = 50;
constexpr std::size_t kTextLen = 60;

enum class Kind { kPoint, kRange, kUpdate };

struct Row {
    int64_t b = 0;
    std::string c;
};

class SqlWorkload : public SerialWorkload {
  public:
    void setup(uint64_t seed, double *boot_s, double *populate_s) override;
    bool op(SpanBuffer *tb, OpSample &s, Report &rep) override;
    core::System &sys() override { return *dep_->system(); }
    uint64_t entries() const override { return entries_; }
    void beginCount() override { begin_ = dep_->database().pagerStats(); }
    void endCount() override { end_ = dep_->database().pagerStats(); }
    void addLayerMetrics(Report &rep, uint64_t ops) override;

  private:
    Kind nextKind();
    minisql::ResultSet exec(const std::string &sql, SpanBuffer *tb,
                            int64_t *ns);

    std::unique_ptr<baselines::SqliteDeployment> dep_;
    std::vector<Row> shadow_; ///< index = key - 1
    hw::Prng prng_;
    std::vector<Kind> pending_;
    uint64_t entries_ = 0;
    uint32_t tablePages_ = 0;
    minisql::PagerStats begin_, end_;
};

std::string
randomText(hw::Prng &prng)
{
    std::string s(kTextLen, 'a');
    for (char &ch : s)
        ch = static_cast<char>('a' + prng.nextBelow(26));
    return s;
}

void
SqlWorkload::setup(uint64_t seed, double *boot_s, double *populate_s)
{
    dep_.reset();
    const int64_t t0 = nowNs();
    dep_ = baselines::SqliteDeployment::makeCubicles(
        7, core::IsolationMode::kFull, kCachePages);
    const int64_t t1 = nowNs();

    prng_ = hw::Prng(seed * 0x9E3779B97F4A7C15ull + 3);
    shadow_.assign(static_cast<std::size_t>(kRows), Row{});
    for (Row &r : shadow_) {
        r.b = static_cast<int64_t>(prng_.nextBelow(1'000'000));
        r.c = randomText(prng_);
    }
    minisql::Database &db = dep_->database();
    dep_->enter([&] {
        db.exec("CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER, c TEXT)");
        db.exec("BEGIN");
        for (int64_t k = 1; k <= kRows; ++k) {
            const Row &r = shadow_[static_cast<std::size_t>(k - 1)];
            db.exec("INSERT INTO t VALUES (" + std::to_string(k) + "," +
                    std::to_string(r.b) + ",'" + r.c + "')");
        }
        db.exec("COMMIT");
    });
    const int64_t t2 = nowNs();
    *boot_s = static_cast<double>(t1 - t0) / 1e9;
    *populate_s = static_cast<double>(t2 - t1) / 1e9;
    tablePages_ = db.pager().pageCount();
    pending_.clear();
    entries_ = 0;
}

Kind
SqlWorkload::nextKind()
{
    if (pending_.empty()) {
        // One block of ten statements with the exact 7/1/2 mix.
        pending_.assign(7, Kind::kPoint);
        pending_.push_back(Kind::kRange);
        pending_.push_back(Kind::kUpdate);
        pending_.push_back(Kind::kUpdate);
        for (std::size_t i = pending_.size(); i > 1; --i)
            std::swap(pending_[i - 1], pending_[prng_.nextBelow(i)]);
    }
    const Kind k = pending_.back();
    pending_.pop_back();
    return k;
}

minisql::ResultSet
SqlWorkload::exec(const std::string &sql, SpanBuffer *tb, int64_t *ns)
{
    minisql::ResultSet rs;
    dep_->enter([&] {
        Scope span(tb, "apps.minisql.exec");
        const int64_t t0 = nowNs();
        rs = dep_->database().exec(sql);
        *ns = nowNs() - t0;
    });
    ++entries_;
    return rs;
}

bool
SqlWorkload::op(SpanBuffer *tb, OpSample &s, Report &rep)
{
    Scope root(tb, "loadgen.op");
    const Kind kind = nextKind();
    const int64_t key =
        1 + static_cast<int64_t>(prng_.nextBelow(static_cast<uint64_t>(kRows)));
    std::string sql;
    switch (kind) {
      case Kind::kPoint:
        sql = "SELECT b, c FROM t WHERE a = " + std::to_string(key);
        break;
      case Kind::kRange: {
        const int64_t lo = std::min(key, kRows - kRange + 1);
        sql = "SELECT count(*), sum(b) FROM t WHERE a BETWEEN " +
              std::to_string(lo) + " AND " + std::to_string(lo + kRange - 1);
        break;
      }
      case Kind::kUpdate: {
        const int64_t v = static_cast<int64_t>(prng_.nextBelow(1'000'000));
        shadow_[static_cast<std::size_t>(key - 1)].b = v;
        sql = "UPDATE t SET b = " + std::to_string(v) +
              " WHERE a = " + std::to_string(key);
        break;
      }
    }

    int64_t ns = 0;
    minisql::ResultSet rs;
    try {
        rs = exec(sql, tb, &ns);
    } catch (const std::exception &e) {
        rep.fail(sql + ": " + e.what());
        return false;
    }
    s.deployNs = ns;
    (kind == Kind::kUpdate ? s.writeNs : s.readNs) = ns;

    Scope check(tb, "loadgen.check");
    bool ok = true;
    if (kind == Kind::kPoint) {
        const Row &want = shadow_[static_cast<std::size_t>(key - 1)];
        ok = rs.rows.size() == 1 && rs.rows[0].size() == 2 &&
             rs.rows[0][0].asInt() == want.b &&
             rs.rows[0][1].asText() == want.c;
    } else if (kind == Kind::kRange) {
        const int64_t lo = std::min(key, kRows - kRange + 1);
        int64_t sum = 0;
        for (int64_t k = lo; k < lo + kRange; ++k)
            sum += shadow_[static_cast<std::size_t>(k - 1)].b;
        ok = rs.rows.size() == 1 && rs.rows[0].size() == 2 &&
             rs.rows[0][0].asInt() == kRange && rs.rows[0][1].asInt() == sum;
    }
    if (!ok)
        rep.fail(sql + ": result differs from the shadow map");
    return ok;
}

void
SqlWorkload::addLayerMetrics(Report &rep, uint64_t ops)
{
    const double n = static_cast<double>(ops);
    const uint64_t hits = end_.cacheHits - begin_.cacheHits;
    const uint64_t misses = end_.cacheMisses - begin_.cacheMisses;
    rep.add("apps.minisql.pager.hit_pct",
            hits + misses ? 100.0 * static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0,
            "%");
    rep.add("apps.minisql.pager.reads_per_op",
            static_cast<double>(end_.pageReads - begin_.pageReads) / n,
            "count");
    rep.add("apps.minisql.pager.writes_per_op",
            static_cast<double>(end_.pageWrites - begin_.pageWrites) / n,
            "count");
    rep.add("apps.minisql.table_pages", static_cast<double>(tablePages_),
            "count");
}

} // namespace

void
runSql(const Args &args, Report &rep)
{
    SqlWorkload w;
    SerialPlan plan;
    plan.warmupOps = 5000;
    plan.countedOps = 20000;
    plan.blockOps = 1000;
    plan.mixOps = 10;
    plan.traceEvery = 8;
    plan.spanNames = {"loadgen.op", "loadgen.check", "apps.minisql.exec"};
    runSerial(args, plan, w, rep);
}

} // namespace perfbench
