/**
 * @file
 * fsbench: the repository benchmark program.
 *
 *   fsbench --workload grade|swarm|serve|paper --seed N --seconds S
 *           --trace 0|1 [--source-id ID] [--corrupt GATE]
 *
 * Untraced runs (--trace 0) report the end-to-end metrics; traced
 * runs (--trace 1) report the per-layer metrics, print a per-layer
 * self-time table, and write their spans to .bench_out/. The last
 * line of standard output is one JSON object:
 * {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
 * The exit code is 0 only when every correctness gate held.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <sys/stat.h>

#include "bench.h"
#include "util/parallel.h"

#ifndef FS_BENCH_COMPILER
#define FS_BENCH_COMPILER "unknown"
#endif
#ifndef FS_BENCH_BUILD_TYPE
#define FS_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace fsbench;

void
usage()
{
    std::fprintf(stderr,
                 "usage: fsbench --workload grade|swarm|serve|paper "
                 "--seed N --seconds S --trace 0|1 [--source-id ID] "
                 "[--corrupt GATE]\n");
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return false;
        const char *val = argv[++i];
        if (arg == "--workload")
            opts.workload = val;
        else if (arg == "--seed")
            opts.seed = std::strtoull(val, nullptr, 0);
        else if (arg == "--seconds")
            opts.seconds = std::atof(val);
        else if (arg == "--trace")
            opts.trace = std::atoi(val) != 0;
        else if (arg == "--source-id")
            opts.sourceId = val;
        else if (arg == "--corrupt")
            opts.corrupt = val;
        else
            return false;
    }
    return !opts.workload.empty() && opts.seconds > 0.0;
}

void
printProvenance(const Options &opts)
{
    const char *threads_env = std::getenv("FS_THREADS");
    std::printf("provenance: {\"workload\":\"%s\",\"seed\":%llu,"
                "\"seconds\":%.3f,\"trace\":%d,\"nproc\":%u,"
                "\"pool_threads\":%zu,\"FS_THREADS\":\"%s\","
                "\"compiler\":\"%s\",\"build_type\":\"%s\","
                "\"source\":\"%s\"}\n",
                opts.workload.c_str(), (unsigned long long)opts.seed,
                opts.seconds, opts.trace ? 1 : 0,
                std::thread::hardware_concurrency(),
                fs::util::ThreadPool::configuredThreads(),
                threads_env ? threads_env : "unset", FS_BENCH_COMPILER,
                FS_BENCH_BUILD_TYPE, opts.sourceId.c_str());
}

void
printResult(const Result &res)
{
    std::string out = "{\"correct\": ";
    out += res.correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(res.attempted);
    out += ", \"failed\": " + std::to_string(res.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < res.metrics.size(); ++i) {
        const Metric &m = res.metrics[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        usage();
        return 2;
    }
    void (*workload)(const Options &, Result &) = nullptr;
    if (opts.workload == "grade")
        workload = runGrade;
    else if (opts.workload == "swarm")
        workload = runSwarm;
    else if (opts.workload == "serve")
        workload = runServe;
    else if (opts.workload == "paper")
        workload = runPaper;
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opts.workload.c_str());
        usage();
        return 2;
    }
    // The serve workload measures the in-memory result cache only.
    ::unsetenv("FS_SERVE_CACHE_DIR");
    ::mkdir(opts.outDir.c_str(), 0755);

    printProvenance(opts);
    Result res;
    workload(opts, res);
    if (opts.trace) {
        runLayerProbes(opts, res);
        const std::string path = opts.outDir + "/spans-" + opts.workload +
                                 "-seed" + std::to_string(opts.seed) +
                                 ".json";
        const auto spans = trace::snapshot();
        if (trace::writeJson(path, spans))
            std::printf("spans: %zu written to %s\n", spans.size(),
                        path.c_str());
    } else {
        reportModelError(res);
        res.metric("peak_rss_mb", peakRssMb(), "MiB");
    }
    for (const std::string &f : res.failures)
        std::printf("GATE FAILED: %s\n", f.c_str());
    std::fflush(stdout);
    printResult(res);
    return res.correct() ? 0 : 1;
}
