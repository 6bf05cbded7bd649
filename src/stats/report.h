/**
 * @file
 * Machine-readable results: a dependency-free JSON value tree.
 *
 * Every bench binary emits a BENCH_<name>.json next to its text
 * output so miss ratios, CPI components and sweep throughput are
 * diffable across commits. The emitter is deliberately tiny — no
 * third-party JSON library — but careful where it matters:
 *
 *  - object keys keep insertion order, so two runs of the same bench
 *    produce byte-comparable documents;
 *  - doubles are printed with the shortest decimal form that parses
 *    back to the identical bit pattern (round-trip safe), integers
 *    as integers;
 *  - non-finite doubles (NaN/Inf), which JSON cannot represent,
 *    serialize as null;
 *  - strings are escaped per RFC 8259 (control characters, quote,
 *    backslash).
 *
 * A minimal parser is included so tests, tools/validate_bench_json and
 * the sweep server's protocol can read documents without adding a
 * Python or library dependency.
 */

#ifndef IBS_STATS_REPORT_H
#define IBS_STATS_REPORT_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ibs {

/** One JSON value: null, bool, number, string, array or object. */
class Json
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    /** Default-constructed value is null. */
    Json() = default;

    static Json null() { return Json(); }
    static Json boolean(bool b);
    static Json number(double v);
    static Json number(uint64_t v);
    static Json number(int64_t v);
    /** Disambiguate plain int literals (would be ambiguous above). */
    static Json number(int v) { return number(static_cast<int64_t>(v)); }
    static Json string(std::string s);
    static Json array();
    static Json object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Set (or replace) a key of an object. Returns *this. */
    Json &set(const std::string &key, Json value);

    /** Append an element to an array. Returns *this. */
    Json &push(Json value);

    /** Array length or object member count (0 otherwise). */
    size_t size() const;

    /** Object members in insertion order (empty for non-objects). */
    const std::vector<std::pair<std::string, Json>> &
    members() const
    {
        return object_;
    }

    /** Object member by key, or nullptr. */
    const Json *find(const std::string &key) const;

    /** Object member by key; throws std::out_of_range if absent. */
    const Json &at(const std::string &key) const;

    /** Array element by index; throws std::out_of_range. */
    const Json &at(size_t index) const;

    bool asBool() const { return bool_; }
    double asNumber() const;
    const std::string &asString() const { return string_; }

    /**
     * Serialize. indent > 0 pretty-prints with that many spaces per
     * level; indent == 0 emits the compact single-line form. The
     * result never has a trailing newline (callers add one when
     * writing files).
     */
    std::string dump(int indent = 2) const;

    /** Deepest array/object nesting parse() accepts. Real documents
     *  nest at most 5 levels (bench reports); the cap bounds the
     *  parser's recursion on untrusted input (server frames). */
    static constexpr int kMaxParseDepth = 256;

    /**
     * Parse a JSON document. Throws std::runtime_error with a byte
     * offset on malformed input, trailing garbage or nesting deeper
     * than kMaxParseDepth.
     */
    static Json parse(const std::string &text);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    // Numbers remember how they were given so counters print as
    // integers and doubles get the round-trip treatment.
    enum class Num { Double, Int, Uint };
    Num num_ = Num::Double;
    double double_ = 0.0;
    int64_t int_ = 0;
    uint64_t uint_ = 0;
    std::string string_;
    std::vector<Json> array_;
    std::vector<std::pair<std::string, Json>> object_;
};

/** Steady-clock stopwatch for per-cell bench timing. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    /** Seconds elapsed since construction or the last restart(). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    void restart() { start_ = std::chrono::steady_clock::now(); }

  private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace ibs

#endif // IBS_STATS_REPORT_H
