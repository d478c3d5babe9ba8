/**
 * @file
 * The repo benchmark's workload program.
 *
 *   perfbench --workload <web-tenants|web-bulk|sql-mixed|xcall-mt>
 *             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
 *
 * Prints a provenance line, a human-readable summary and, as the last
 * line, one JSON object with the output checks and every metric the
 * run measured. perfbench/run.py builds this program and selects the
 * metrics the benchmark reports.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#ifdef CUBICLE_LOCKDEP
constexpr bool kLockdep = true;
#else
constexpr bool kLockdep = false;
#endif

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <web-tenants|web-bulk|"
                 "sql-mixed|xcall-mt> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload")
            args.workload = val;
        else if (key == "--seed")
            args.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::atof(val.c_str());
        else if (key == "--trace")
            args.trace = val == "1";
        else if (key == "--trace-out")
            args.traceOut = val;
        else
            return usage();
    }
    if (args.workload.empty() || args.seconds <= 0 || argc % 2 == 0)
        return usage();

    // A lockdep build captures a backtrace on every lock acquire, which
    // swamps the costs being measured: refuse to report from one.
    if (kLockdep) {
        std::fprintf(stderr, "perfbench: refusing to run a build with "
                             "CUBICLE_LOCKDEP on\n");
        return 3;
    }

    std::printf("{\"provenance\": {\"build_type\": \"%s\", \"lockdep\": "
                "\"off\", \"host_cores\": %u, \"workload\": \"%s\", "
                "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}}\n",
                PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);

    perfbench::Report rep;
    try {
        if (args.workload == "web-tenants")
            perfbench::runWeb(args, rep, true);
        else if (args.workload == "web-bulk")
            perfbench::runWeb(args, rep, false);
        else if (args.workload == "sql-mixed")
            perfbench::runSql(args, rep);
        else if (args.workload == "xcall-mt")
            perfbench::runXcall(args, rep);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    for (const auto &m : rep.metrics)
        std::printf("%-44s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const auto &e : rep.errors)
        std::printf("CHECK FAILED: %s\n", e.c_str());
    std::printf("%s\n", rep.json().c_str());
    std::fflush(stdout);
    return rep.failed == 0 && rep.errors.empty() ? 0 : 1;
}
