/**
 * @file
 * JSON value tree implementation.
 */

#include "stats/report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace ibs {

Json
Json::boolean(bool b)
{
    Json j;
    j.kind_ = Kind::Bool;
    j.bool_ = b;
    return j;
}

Json
Json::number(double v)
{
    Json j;
    j.kind_ = Kind::Number;
    j.num_ = Num::Double;
    j.double_ = v;
    return j;
}

Json
Json::number(uint64_t v)
{
    Json j;
    j.kind_ = Kind::Number;
    j.num_ = Num::Uint;
    j.uint_ = v;
    return j;
}

Json
Json::number(int64_t v)
{
    Json j;
    j.kind_ = Kind::Number;
    j.num_ = Num::Int;
    j.int_ = v;
    return j;
}

Json
Json::string(std::string s)
{
    Json j;
    j.kind_ = Kind::String;
    j.string_ = std::move(s);
    return j;
}

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

Json &
Json::set(const std::string &key, Json value)
{
    if (kind_ != Kind::Object)
        throw std::logic_error("Json::set on a non-object");
    for (auto &[k, v] : object_) {
        if (k == key) {
            v = std::move(value);
            return *this;
        }
    }
    object_.emplace_back(key, std::move(value));
    return *this;
}

Json &
Json::push(Json value)
{
    if (kind_ != Kind::Array)
        throw std::logic_error("Json::push on a non-array");
    array_.push_back(std::move(value));
    return *this;
}

size_t
Json::size() const
{
    if (kind_ == Kind::Array)
        return array_.size();
    if (kind_ == Kind::Object)
        return object_.size();
    return 0;
}

const Json *
Json::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    const Json *j = find(key);
    if (!j)
        throw std::out_of_range("Json: no member \"" + key + "\"");
    return *j;
}

const Json &
Json::at(size_t index) const
{
    if (kind_ != Kind::Array || index >= array_.size())
        throw std::out_of_range("Json: array index out of range");
    return array_[index];
}

double
Json::asNumber() const
{
    switch (num_) {
      case Num::Double:
        return double_;
      case Num::Int:
        return static_cast<double>(int_);
      case Num::Uint:
        return static_cast<double>(uint_);
    }
    return 0.0;
}

namespace {

/**
 * Shortest decimal string that strtod's back to exactly `v`.
 * Classic precision ladder: %.1g up to %.17g (DBL_DECIMAL_DIG always
 * round-trips for finite doubles).
 */
std::string
formatDouble(double v)
{
    char buf[40];
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    // JSON requires a fraction or exponent marker to stay a number on
    // reparse, but "1e+06"-style output is already fine as-is.
    return buf;
}

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    const std::string pad =
        indent > 0 ? std::string(static_cast<size_t>(indent) *
                                 (static_cast<size_t>(depth) + 1), ' ')
                   : std::string();
    const std::string close_pad =
        indent > 0 ? std::string(static_cast<size_t>(indent) *
                                 static_cast<size_t>(depth), ' ')
                   : std::string();
    const char *nl = indent > 0 ? "\n" : "";
    const char *colon = indent > 0 ? ": " : ":";

    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Number:
        switch (num_) {
          case Num::Double:
            if (std::isfinite(double_)) {
                out += formatDouble(double_);
            } else {
                out += "null"; // JSON has no NaN/Inf.
            }
            break;
          case Num::Int:
            out += std::to_string(int_);
            break;
          case Num::Uint:
            out += std::to_string(uint_);
            break;
        }
        break;
      case Kind::String:
        appendEscaped(out, string_);
        break;
      case Kind::Array:
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        out += nl;
        for (size_t i = 0; i < array_.size(); ++i) {
            out += pad;
            array_[i].dumpTo(out, indent, depth + 1);
            if (i + 1 < array_.size())
                out += ',';
            out += nl;
        }
        out += close_pad;
        out += ']';
        break;
      case Kind::Object:
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        out += nl;
        for (size_t i = 0; i < object_.size(); ++i) {
            out += pad;
            appendEscaped(out, object_[i].first);
            out += colon;
            object_[i].second.dumpTo(out, indent, depth + 1);
            if (i + 1 < object_.size())
                out += ',';
            out += nl;
        }
        out += close_pad;
        out += '}';
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/** Recursive-descent JSON parser over a string (validation-grade). */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Json
    parseDocument()
    {
        Json value = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("Json::parse: " + what +
                                 " at offset " + std::to_string(pos_));
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeWord(const char *word)
    {
        const size_t len = std::char_traits<char>::length(word);
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    Json
    parseValue()
    {
        skipSpace();
        switch (peek()) {
          case '{':
          case '[': {
            // One recursion per level: bounding it turns a hostile
            // input's stack overflow into an ordinary parse error.
            if (depth_ == Json::kMaxParseDepth)
                fail("nesting deeper than " +
                     std::to_string(Json::kMaxParseDepth) + " levels");
            ++depth_;
            Json nested = peek() == '{' ? parseObject() : parseArray();
            --depth_;
            return nested;
          }
          case '"':
            return Json::string(parseString());
          case 't':
            if (!consumeWord("true"))
                fail("bad literal");
            return Json::boolean(true);
          case 'f':
            if (!consumeWord("false"))
                fail("bad literal");
            return Json::boolean(false);
          case 'n':
            if (!consumeWord("null"))
                fail("bad literal");
            return Json::null();
          default:
            return parseNumber();
        }
    }

    Json
    parseObject()
    {
        expect('{');
        Json obj = Json::object();
        skipSpace();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        for (;;) {
            skipSpace();
            std::string key = parseString();
            skipSpace();
            expect(':');
            obj.set(key, parseValue());
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return obj;
        }
    }

    Json
    parseArray()
    {
        expect('[');
        Json arr = Json::array();
        skipSpace();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        for (;;) {
            arr.push(parseValue());
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            c = text_[pos_++];
            switch (c) {
              case '"':
              case '\\':
              case '/':
                out += c;
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // The emitter only escapes control characters; decode
                // BMP code points to UTF-8 for completeness.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                fail("bad escape");
            }
        }
    }

    Json
    parseNumber()
    {
        const size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        bool integral = true;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start || (text_[start] == '-' && pos_ == start + 1))
            fail("bad number");
        const std::string token = text_.substr(start, pos_ - start);
        errno = 0;
        char *end = nullptr;
        const double d = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            fail("bad number");
        if (integral) {
            // Preserve exact 64-bit integers when they fit.
            errno = 0;
            if (token[0] == '-') {
                const long long i = std::strtoll(token.c_str(),
                                                 &end, 10);
                if (errno == 0)
                    return Json::number(static_cast<int64_t>(i));
            } else {
                const unsigned long long u =
                    std::strtoull(token.c_str(), &end, 10);
                if (errno == 0)
                    return Json::number(static_cast<uint64_t>(u));
            }
        }
        return Json::number(d);
    }

    const std::string &text_;
    size_t pos_ = 0;
    int depth_ = 0; ///< Arrays and objects open at pos_.
};

} // namespace

Json
Json::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

} // namespace ibs
