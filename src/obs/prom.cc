/**
 * @file
 * Prometheus exposition render / parse / validate implementation.
 */

#include "obs/prom.h"

#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "obs/registry.h"

namespace ibs::obs {

namespace {

bool
isNameStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
        c == ':';
}

bool
isNameChar(char c)
{
    return isNameStart(c) ||
        std::isdigit(static_cast<unsigned char>(c));
}

/** Render a uint64 exactly (no scientific notation, no precision
 *  loss below 2^53 — and bucket edges above that are 2^k-1 values
 *  compared as parsed doubles on both sides, so round-tripping stays
 *  consistent). */
std::string
formatValue(uint64_t v)
{
    return std::to_string(v);
}

struct Sample
{
    std::string name;   ///< Full sample name (incl. _bucket etc.).
    std::string labels; ///< Raw text between the braces, or empty.
    std::string value;  ///< Raw value text.
    size_t line = 0;    ///< 1-based source line.
};

/** Split exposition text into TYPE declarations and samples.
 *  Returns false with `error` set on any malformed line. */
bool
lexPromText(const std::string &text,
            std::vector<std::pair<std::string, std::string>> &types,
            std::vector<Sample> &samples, std::string &error)
{
    std::istringstream in(text);
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            // Only "# TYPE <name> <type>" comments are meaningful.
            std::istringstream comment(line);
            std::string hash, keyword, name, type;
            comment >> hash >> keyword;
            if (keyword != "TYPE")
                continue;
            if (!(comment >> name >> type) ||
                (type != "counter" && type != "gauge" &&
                 type != "histogram" && type != "summary" &&
                 type != "untyped")) {
                error = "line " + std::to_string(lineno) +
                    ": malformed # TYPE comment";
                return false;
            }
            types.emplace_back(name, type);
            continue;
        }
        Sample s;
        s.line = lineno;
        size_t i = 0;
        if (!isNameStart(line[i])) {
            error = "line " + std::to_string(lineno) +
                ": sample does not start with a metric name";
            return false;
        }
        while (i < line.size() && isNameChar(line[i]))
            ++i;
        s.name = line.substr(0, i);
        if (i < line.size() && line[i] == '{') {
            const size_t close = line.find('}', i);
            if (close == std::string::npos) {
                error = "line " + std::to_string(lineno) +
                    ": unterminated label set";
                return false;
            }
            s.labels = line.substr(i + 1, close - i - 1);
            i = close + 1;
        }
        if (i >= line.size() || line[i] != ' ') {
            error = "line " + std::to_string(lineno) +
                ": expected space before sample value";
            return false;
        }
        while (i < line.size() && line[i] == ' ')
            ++i;
        s.value = line.substr(i);
        if (s.value.empty()) {
            error = "line " + std::to_string(lineno) +
                ": missing sample value";
            return false;
        }
        try {
            size_t used = 0;
            (void)std::stod(s.value, &used);
            // Allow an optional timestamp after the value.
            while (used < s.value.size() && s.value[used] == ' ')
                ++used;
            if (used < s.value.size())
                (void)std::stoll(s.value.substr(used));
        } catch (const std::exception &) {
            error = "line " + std::to_string(lineno) +
                ": unparseable sample value '" + s.value + "'";
            return false;
        }
        samples.push_back(std::move(s));
    }
    return true;
}

/** Extract the `le` label value from a raw label string such as
 *  `le="255"` — the only label this codebase emits or reads. */
bool
leEdge(const std::string &labels, double &out)
{
    const size_t pos = labels.find("le=\"");
    if (pos == std::string::npos)
        return false;
    const size_t start = pos + 4;
    const size_t end = labels.find('"', start);
    if (end == std::string::npos)
        return false;
    const std::string text = labels.substr(start, end - start);
    if (text == "+Inf") {
        out = std::numeric_limits<double>::infinity();
        return true;
    }
    try {
        out = std::stod(text);
    } catch (const std::exception &) {
        return false;
    }
    return true;
}

/** Strip a known suffix; false if `name` does not end with it. */
bool
stripSuffix(const std::string &name, const std::string &suffix,
            std::string &base)
{
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(),
                     suffix) != 0)
        return false;
    base = name.substr(0, name.size() - suffix.size());
    return true;
}

} // namespace

std::string
promMetricName(const std::string &name)
{
    std::string out = "ibs_";
    out.reserve(name.size() + 4);
    for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_')
            out.push_back(c);
        else
            out.push_back('_');
    }
    return out;
}

std::string
renderPrometheus(const Registry &registry)
{
    const auto counters = registry.snapshot();
    const auto histograms = registry.snapshotHistograms();

    std::ostringstream out;
    for (const auto &[name, value] : counters) {
        const std::string metric = promMetricName(name);
        out << "# TYPE " << metric << " counter\n";
        out << metric << ' ' << formatValue(value) << '\n';
    }
    for (const auto &[name, hist] : histograms) {
        const std::string metric = promMetricName(name);
        out << "# TYPE " << metric << " histogram\n";
        // Cumulative buckets up to the highest occupied one; the
        // mandatory +Inf bucket also absorbs the overflow bin.
        size_t top = 0;
        for (size_t k = 0; k < hist.counts.size(); ++k)
            if (hist.counts[k] > 0)
                top = k + 1;
        uint64_t cumulative = 0;
        for (size_t k = 0; k < top; ++k) {
            cumulative += hist.counts[k];
            out << metric << "_bucket{le=\""
                << formatValue(log2BucketUpperEdge(uint64_t{1} << k))
                << "\"} " << formatValue(cumulative) << '\n';
        }
        out << metric << "_bucket{le=\"+Inf\"} "
            << formatValue(hist.count) << '\n';
        out << metric << "_sum " << formatValue(hist.sum) << '\n';
        out << metric << "_count " << formatValue(hist.count)
            << '\n';
    }
    return out.str();
}

double
PromHistogram::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    const double target = q * static_cast<double>(count);
    uint64_t prev = 0;
    for (const auto &[edge, cumulative] : buckets) {
        // Same occupied-bucket rule as HistogramSnapshot::quantile.
        if (cumulative > prev &&
            static_cast<double>(cumulative) >= target)
            return edge;
        prev = cumulative;
    }
    return std::numeric_limits<double>::infinity();
}

bool
parsePromHistogram(const std::string &text, const std::string &metric,
                   PromHistogram &out)
{
    std::vector<std::pair<std::string, std::string>> types;
    std::vector<Sample> samples;
    std::string error;
    if (!lexPromText(text, types, samples, error))
        return false;
    out = PromHistogram{};
    bool have_count = false;
    for (const auto &s : samples) {
        std::string base;
        if (stripSuffix(s.name, "_bucket", base) && base == metric) {
            double edge = 0;
            if (!leEdge(s.labels, edge))
                return false;
            out.buckets.emplace_back(
                edge, static_cast<uint64_t>(std::stod(s.value)));
        } else if (stripSuffix(s.name, "_sum", base) &&
                   base == metric) {
            out.sum = std::stod(s.value);
        } else if (stripSuffix(s.name, "_count", base) &&
                   base == metric) {
            out.count = static_cast<uint64_t>(std::stod(s.value));
            have_count = true;
        }
    }
    return have_count && !out.buckets.empty();
}

bool
findPromValue(const std::string &text, const std::string &metric,
              double &out)
{
    std::vector<std::pair<std::string, std::string>> types;
    std::vector<Sample> samples;
    std::string error;
    if (!lexPromText(text, types, samples, error))
        return false;
    for (const auto &s : samples) {
        if (s.name == metric && s.labels.empty()) {
            out = std::stod(s.value);
            return true;
        }
    }
    return false;
}

bool
validatePromText(const std::string &text, std::string &error)
{
    std::vector<std::pair<std::string, std::string>> types;
    std::vector<Sample> samples;
    if (!lexPromText(text, types, samples, error))
        return false;

    std::map<std::string, std::string> family_type;
    for (const auto &[name, type] : types) {
        if (!family_type.emplace(name, type).second) {
            error = "family '" + name +
                "' announced by more than one # TYPE line";
            return false;
        }
    }

    // Histogram family accumulation state, in sample order.
    struct HistState
    {
        double last_edge = -std::numeric_limits<double>::infinity();
        uint64_t last_cumulative = 0;
        bool have_inf = false;
        uint64_t inf_count = 0;
        bool have_sum = false;
        bool have_count = false;
        uint64_t count = 0;
        bool have_bucket = false;
    };
    std::map<std::string, HistState> hist_state;

    for (const auto &s : samples) {
        // Resolve which announced family this sample belongs to:
        // exact name, or histogram series suffixes.
        std::string family = s.name;
        std::string base;
        bool is_bucket = false, is_sum = false, is_count = false;
        if (family_type.count(family) == 0) {
            if (stripSuffix(s.name, "_bucket", base) &&
                family_type.count(base)) {
                family = base;
                is_bucket = true;
            } else if (stripSuffix(s.name, "_sum", base) &&
                       family_type.count(base)) {
                family = base;
                is_sum = true;
            } else if (stripSuffix(s.name, "_count", base) &&
                       family_type.count(base)) {
                family = base;
                is_count = true;
            } else {
                error = "line " + std::to_string(s.line) +
                    ": sample '" + s.name +
                    "' has no preceding # TYPE line";
                return false;
            }
        }
        const std::string &type = family_type[family];
        if (type != "histogram") {
            if (is_bucket || is_sum || is_count) {
                error = "line " + std::to_string(s.line) +
                    ": histogram series suffix on non-histogram "
                    "family '" +
                    family + "'";
                return false;
            }
            continue;
        }
        HistState &h = hist_state[family];
        if (is_bucket) {
            double edge = 0;
            if (!leEdge(s.labels, edge)) {
                error = "line " + std::to_string(s.line) +
                    ": _bucket sample without an le label";
                return false;
            }
            if (edge <= h.last_edge) {
                error = "line " + std::to_string(s.line) +
                    ": bucket le edges must strictly increase in '" +
                    family + "'";
                return false;
            }
            const uint64_t cumulative =
                static_cast<uint64_t>(std::stod(s.value));
            if (cumulative < h.last_cumulative) {
                error = "line " + std::to_string(s.line) +
                    ": cumulative bucket count decreased in '" +
                    family + "'";
                return false;
            }
            h.last_edge = edge;
            h.last_cumulative = cumulative;
            h.have_bucket = true;
            if (std::isinf(edge)) {
                h.have_inf = true;
                h.inf_count = cumulative;
            }
        } else if (is_sum) {
            h.have_sum = true;
        } else if (is_count) {
            h.have_count = true;
            h.count = static_cast<uint64_t>(std::stod(s.value));
        } else {
            error = "line " + std::to_string(s.line) +
                ": bare sample for histogram family '" + family +
                "' (expected _bucket/_sum/_count)";
            return false;
        }
    }

    for (const auto &[family, type] : family_type) {
        if (type != "histogram")
            continue;
        const auto it = hist_state.find(family);
        if (it == hist_state.end() || !it->second.have_bucket ||
            !it->second.have_sum || !it->second.have_count) {
            error = "histogram family '" + family +
                "' is missing _bucket, _sum or _count samples";
            return false;
        }
        if (!it->second.have_inf) {
            error = "histogram family '" + family +
                "' is missing the le=\"+Inf\" bucket";
            return false;
        }
        if (it->second.inf_count != it->second.count) {
            error = "histogram family '" + family +
                "': le=\"+Inf\" bucket does not equal _count";
            return false;
        }
    }

    error.clear();
    return true;
}

} // namespace ibs::obs
