/**
 * @file
 * Shared plumbing of the repository benchmark: run options, the
 * result record every workload fills (metrics, attempts, failures),
 * the in-memory span tracer, and small statistics helpers.
 *
 * Spans are recorded only from the benchmark's own code, around calls
 * into the library's public functions; the library itself is not
 * instrumented. A span's layer is its name up to the first '.', which
 * matches a src/ module (riscv, soc, fault, swarm, harvest, serve,
 * fleet, dse, circuit, util).
 */

#ifndef FSBENCH_BENCH_H_
#define FSBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fsbench {

/** Command-line options of one benchmark run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Self-test hook: name of the correctness gate whose expected
     *  data gets one byte flipped (empty = none). */
    std::string corrupt;
    /** Identifies the source tree (git SHA or content digest). */
    std::string sourceId = "unknown";
    /** Directory (relative to the working directory) for span dumps
     *  and sockets. */
    std::string outDir = ".bench_out";
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload reports: the JSON line is built from this. */
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Gate messages of every failed check (printed, never retried). */
    std::vector<std::string> failures;

    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Count `n` attempted operations of which `bad` failed. */
    void tally(std::uint64_t n, std::uint64_t bad);
    /** One attempted check; records `what` when it fails. */
    bool check(bool ok, const std::string &what);
    bool correct() const { return failed == 0 && failures.empty(); }
};

/** True when `gate` is the one Options::corrupt names. */
bool corrupting(const Options &opts, const char *gate);

/** Flip one byte of `bytes` (the self-test's corrupted expectation). */
void flipByte(std::vector<std::uint8_t> &bytes, std::size_t at = 0);

// --- statistics -------------------------------------------------------

double median(std::vector<double> v);
/** Linear-interpolated quantile, q in [0, 1]. */
double quantile(std::vector<double> v, double q);

/**
 * The tail percentile a sample supports: p99 when at least ten
 * samples lie beyond it, otherwise the highest percentile that still
 * has ten samples beyond it (p50 as a floor).
 */
struct Tail {
    double percentile = 99.0;
    double value = 0.0;
    std::size_t samples = 0;
};
Tail tailPercentile(const std::vector<double> &v);

/** Peak resident set size of this process so far (MiB). */
double peakRssMb();

/** Monotonic seconds. */
double nowSeconds();

// --- tracing -----------------------------------------------------------

namespace trace {

struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t request = 0; ///< request id (serve), 0 = none
    std::string name;
    double start = 0.0; ///< seconds, nowSeconds() clock
    double end = 0.0;
};

void setEnabled(bool on);
bool enabled();

/** Innermost open span on this thread (0 = none). */
std::uint64_t current();

/**
 * RAII span. Inert while tracing is off. Work fanned out to a pool
 * passes the fanning span's id as `parent` explicitly, since pool
 * threads have no open span of their own.
 */
class Span
{
  public:
    explicit Span(std::string_view name, std::uint64_t parent = current(),
                  std::uint64_t request = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return rec_.id; }

  private:
    Record rec_;
    std::uint64_t saved_ = 0;
};

/** All spans closed so far, in close order. */
std::vector<Record> snapshot();

/**
 * Print the per-layer table of the spans in [t0, t1]: self time,
 * span count and share of the window per layer, plus the share of
 * the window no span covers. @return that uncovered share (0..1).
 */
double printLayerTable(const std::string &title,
                       const std::vector<Record> &spans, double t0,
                       double t1);

/** Write spans as a JSON array to `path`, times relative to the
 *  earliest start. @return false on I/O error. */
bool writeJson(const std::string &path, const std::vector<Record> &spans);

} // namespace trace

// --- workloads and probes ----------------------------------------------

void runGrade(const Options &opts, Result &res);
void runSwarm(const Options &opts, Result &res);
void runServe(const Options &opts, Result &res);
void runPaper(const Options &opts, Result &res);

/**
 * Table IV fidelity: max relative error (%) of the simulated system
 * current, resolution and checkpoint voltage of the five monitors
 * against the paper's published cells. These cells are static model
 * outputs of IntermittentSim::run, so a short trace suffices; every
 * workload reports it as model_err_pct.
 */
void reportModelError(Result &res);

/** Per-layer probes: fixed-size runs of each module's public entry
 *  points, reported as the per-layer metrics of a traced run. */
void runLayerProbes(const Options &opts, Result &res);

/**
 * Helper for workloads: in a traced run, alternate untraced and traced
 * halves of the measurement and report the tracing overhead on the
 * workload's headline rate (higher = better) as trace_overhead_pct.
 */
void reportTraceOverhead(Result &res, double untraced_rate,
                         double traced_rate);

} // namespace fsbench

#endif // FSBENCH_BENCH_H_
