#include "harvest/trace_csv.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

namespace fs {
namespace harvest {

namespace {

/** Wrap t into [0, duration) and return the index of the last sample
 *  at or before it. */
std::size_t
sampleIndexFor(const std::vector<double> &times, double t)
{
    const double duration = times.back();
    if (duration > 0.0) {
        t = std::fmod(t, duration);
        if (t < 0.0)
            t += duration;
    } else {
        t = 0.0;
    }
    auto it = std::upper_bound(times.begin(), times.end(), t);
    if (it == times.begin())
        return 0;
    return std::size_t(it - times.begin()) - 1;
}

/** Split on commas into `fields` (views into `line`). */
void
splitFields(std::string_view line, std::vector<std::string_view> *fields)
{
    fields->clear();
    while (true) {
        const std::size_t comma = line.find(',');
        fields->push_back(line.substr(0, comma));
        if (comma == std::string_view::npos)
            return;
        line.remove_prefix(comma + 1);
    }
}

std::string_view
trimmed(std::string_view s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && (s[b] == ' ' || s[b] == '\t'))
        ++b;
    while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t'))
        --e;
    return s.substr(b, e - b);
}

bool
parseField(std::string_view raw, double *out)
{
    const std::string_view field = trimmed(raw);
    if (field.empty())
        return false;
    // Fast path: a plain decimal that from_chars reads whole to a
    // normal double is one strtod reads to the same bits without
    // setting errno.
    double v = 0.0;
    const char *last = field.data() + field.size();
    const auto [end, ec] = std::from_chars(field.data(), last, v);
    if (ec == std::errc() && end == last && std::isnormal(v)) {
        *out = v;
        return true;
    }
    // Everything else (a '+' sign, hex, zero, subnormals, overflow,
    // nan/inf, trailing junk) keeps strtod's reading and errno.
    const std::string copy(field);
    errno = 0;
    char *copy_end = nullptr;
    v = std::strtod(copy.c_str(), &copy_end);
    if (errno != 0 || copy_end != copy.c_str() + copy.size())
        return false;
    *out = v;
    return true;
}

TraceCsvResult
fail(TraceCsvStatus status, std::size_t line, std::string message)
{
    TraceCsvResult r;
    r.ok = false;
    r.error = TraceCsvError{status, line, std::move(message)};
    return r;
}

} // namespace

double
EnvTrace::irradianceAt(double t) const
{
    if (timeS.empty())
        return 0.0;
    return wpm2[sampleIndexFor(timeS, t)];
}

double
EnvTrace::temperatureAt(double t) const
{
    if (!hasTemperature || timeS.empty())
        return 25.0;
    return tempC[sampleIndexFor(timeS, t)];
}

const char *
traceCsvStatusName(TraceCsvStatus status)
{
    switch (status) {
    case TraceCsvStatus::kOk:
        return "ok";
    case TraceCsvStatus::kIoError:
        return "io_error";
    case TraceCsvStatus::kEmpty:
        return "empty";
    case TraceCsvStatus::kBadArity:
        return "bad_arity";
    case TraceCsvStatus::kBadField:
        return "bad_field";
    case TraceCsvStatus::kNonFinite:
        return "non_finite";
    case TraceCsvStatus::kNonMonotonic:
        return "non_monotonic";
    }
    return "unknown";
}

TraceCsvResult
parseEnvTraceCsv(const std::string &text)
{
    TraceCsvResult result;
    EnvTrace &trace = result.trace;
    std::vector<std::string_view> fields;
    std::size_t line_no = 0;
    std::size_t arity = 0;
    bool header_allowed = true;
    for (std::size_t pos = 0; pos < text.size();) {
        std::size_t newline = text.find('\n', pos);
        if (newline == std::string::npos)
            newline = text.size();
        std::string_view line(text.data() + pos, newline - pos);
        pos = newline + 1;
        ++line_no;
        if (!line.empty() && line.back() == '\r')
            line.remove_suffix(1);
        const std::string_view stripped = trimmed(line);
        if (stripped.empty() || stripped[0] == '#')
            continue;
        splitFields(line, &fields);
        double first = 0.0;
        if (header_allowed && !parseField(fields[0], &first)) {
            // A non-numeric first field on the first content row is a
            // header; anywhere else it is an error (handled below).
            header_allowed = false;
            if (fields.size() != 2 && fields.size() != 3)
                return fail(TraceCsvStatus::kBadArity, line_no,
                            "header has " +
                                std::to_string(fields.size()) +
                                " columns; expected 2 or 3");
            arity = fields.size();
            continue;
        }
        header_allowed = false;
        if (fields.size() != 2 && fields.size() != 3)
            return fail(TraceCsvStatus::kBadArity, line_no,
                        "row has " + std::to_string(fields.size()) +
                            " fields; expected 2 or 3");
        if (arity == 0)
            arity = fields.size();
        else if (fields.size() != arity)
            return fail(TraceCsvStatus::kBadArity, line_no,
                        "row arity changed from " +
                            std::to_string(arity) + " to " +
                            std::to_string(fields.size()));
        double values[3] = {0.0, 0.0, 0.0};
        for (std::size_t i = 0; i < fields.size(); ++i) {
            if (!parseField(fields[i], &values[i]))
                return fail(TraceCsvStatus::kBadField, line_no,
                            "field " + std::to_string(i + 1) +
                                " is not a number: \"" +
                                std::string(trimmed(fields[i])) + "\"");
            if (!std::isfinite(values[i]))
                return fail(TraceCsvStatus::kNonFinite, line_no,
                            "field " + std::to_string(i + 1) +
                                " is not finite");
        }
        if (!trace.timeS.empty() && values[0] <= trace.timeS.back())
            return fail(TraceCsvStatus::kNonMonotonic, line_no,
                        "timestamp " + std::string(trimmed(fields[0])) +
                            " does not increase");
        trace.timeS.push_back(values[0]);
        trace.wpm2.push_back(values[1]);
        if (arity == 3)
            trace.tempC.push_back(values[2]);
    }
    if (trace.timeS.empty())
        return fail(TraceCsvStatus::kEmpty, 0, "no data rows");
    trace.hasTemperature = (arity == 3);
    result.ok = true;
    return result;
}

TraceCsvResult
loadEnvTraceCsv(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return fail(TraceCsvStatus::kIoError, 0,
                    "cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad())
        return fail(TraceCsvStatus::kIoError, 0,
                    "read error on " + path);
    return parseEnvTraceCsv(buf.str());
}

} // namespace harvest
} // namespace fs
