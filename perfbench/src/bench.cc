#include "bench.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <unordered_map>
#include <utility>

#include <sys/resource.h>

namespace fsbench {

void
Result::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
Result::tally(std::uint64_t n, std::uint64_t bad)
{
    attempted += n;
    failed += bad;
}

bool
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        failures.push_back(what);
    }
    return ok;
}

bool
corrupting(const Options &opts, const char *gate)
{
    return opts.corrupt == gate;
}

void
flipByte(std::vector<std::uint8_t> &bytes, std::size_t at)
{
    if (bytes.empty())
        bytes.push_back(0xA5);
    else
        bytes[at % bytes.size()] ^= 0x01;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const auto lo = std::size_t(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

Tail
tailPercentile(const std::vector<double> &v)
{
    Tail t;
    t.samples = v.size();
    // Highest whole percentile with at least ten samples above it.
    for (double p = 99.0; p >= 50.0; p -= 1.0) {
        const double beyond = double(v.size()) * (100.0 - p) / 100.0;
        if (beyond >= 10.0 || p == 50.0) {
            t.percentile = p;
            t.value = quantile(v, p / 100.0);
            break;
        }
    }
    return t;
}

double
peakRssMb()
{
    struct rusage ru {};
    ::getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
reportTraceOverhead(Result &res, double untraced_rate, double traced_rate)
{
    const double pct = traced_rate > 0.0
                           ? (untraced_rate / traced_rate - 1.0) * 100.0
                           : 0.0;
    std::printf("tracing overhead: %.2f%% (untraced median %.4g vs "
                "traced median %.4g, same run)\n",
                pct, untraced_rate, traced_rate);
    res.metric("trace_overhead_pct", pct, "%");
}

namespace trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<Record> g_spans; // guarded by g_mu
thread_local std::uint64_t t_current = 0;

std::string
layerOf(const std::string &name)
{
    const std::size_t dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

/** Total length of the union of intervals, clipped to [lo, hi]. */
double
unionLength(std::vector<std::pair<double, double>> iv, double lo,
            double hi)
{
    for (auto &p : iv) {
        p.first = std::max(p.first, lo);
        p.second = std::min(p.second, hi);
    }
    std::sort(iv.begin(), iv.end());
    double total = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    bool open = false;
    for (const auto &p : iv) {
        if (p.second <= p.first)
            continue;
        if (!open || p.first > cur_hi) {
            if (open)
                total += cur_hi - cur_lo;
            cur_lo = p.first;
            cur_hi = p.second;
            open = true;
        } else {
            cur_hi = std::max(cur_hi, p.second);
        }
    }
    if (open)
        total += cur_hi - cur_lo;
    return total;
}

} // namespace

void
setEnabled(bool on)
{
    g_enabled.store(on);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

std::uint64_t
current()
{
    return t_current;
}

Span::Span(std::string_view name, std::uint64_t parent, std::uint64_t request)
{
    if (!enabled())
        return;
    rec_.name = name;
    rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
    rec_.parent = parent;
    rec_.request = request;
    saved_ = t_current;
    t_current = rec_.id;
    rec_.start = nowSeconds();
}

Span::~Span()
{
    if (rec_.id == 0)
        return;
    rec_.end = nowSeconds();
    t_current = saved_;
    std::lock_guard<std::mutex> lock(g_mu);
    g_spans.push_back(std::move(rec_));
}

std::vector<Record>
snapshot()
{
    std::lock_guard<std::mutex> lock(g_mu);
    return g_spans;
}

double
printLayerTable(const std::string &title, const std::vector<Record> &spans,
                double t0, double t1)
{
    const double window = std::max(t1 - t0, 1e-12);
    std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
        children;
    std::vector<std::pair<double, double>> roots;
    std::unordered_map<std::uint64_t, bool> present;
    for (const Record &r : spans)
        present[r.id] = true;
    for (const Record &r : spans) {
        if (r.parent != 0 && present.count(r.parent))
            children[r.parent].push_back({r.start, r.end});
        else
            roots.push_back({r.start, r.end});
    }

    struct Row {
        double self = 0.0;
        std::size_t count = 0;
    };
    std::map<std::string, Row> rows;
    for (const Record &r : spans) {
        const double lo = std::max(r.start, t0), hi = std::min(r.end, t1);
        if (hi <= lo)
            continue;
        const auto it = children.find(r.id);
        const double covered =
            it == children.end() ? 0.0 : unionLength(it->second, lo, hi);
        Row &row = rows[layerOf(r.name)];
        row.self += (hi - lo) - covered;
        ++row.count;
    }
    const double uncovered =
        std::max(0.0, 1.0 - unionLength(roots, t0, t1) / window);

    std::printf("\n-- per-layer self time: %s (%.3f s wall) --\n",
                title.c_str(), window);
    std::printf("%-10s %12s %10s %14s\n", "layer", "self (s)", "spans",
                "self / wall");
    for (const auto &[layer, row] : rows)
        std::printf("%-10s %12.4f %10zu %13.1f%%\n", layer.c_str(),
                    row.self, row.count, 100.0 * row.self / window);
    std::printf("%-10s %12.4f %10s %13.1f%%\n", "(none)",
                uncovered * window, "-", 100.0 * uncovered);
    std::printf("(self time sums thread-seconds: parallel layers can "
                "exceed 100%% of wall)\n");
    return uncovered;
}

bool
writeJson(const std::string &path, const std::vector<Record> &spans)
{
    double t0 = spans.empty() ? 0.0 : spans[0].start;
    for (const Record &r : spans)
        t0 = std::min(t0, r.start);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Record &r = spans[i];
        std::fprintf(f,
                     "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                     "\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f}%s\n",
                     (unsigned long long)r.id,
                     (unsigned long long)r.parent,
                     (unsigned long long)r.request, r.name.c_str(),
                     r.start - t0, r.end - t0,
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

} // namespace trace
} // namespace fsbench
