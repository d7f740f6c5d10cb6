#include "trace/json_read.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace lumi
{

const JsonValue *
JsonValue::find(const std::string &name) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[key, value] : members) {
        if (key == name)
            return &value;
    }
    return nullptr;
}

double
JsonValue::number(double fallback) const
{
    if (kind == Kind::Null)
        return std::nan(""); // JsonWriter writes NaN/inf as null.
    if (kind != Kind::Number)
        return fallback;
    errno = 0;
    char *end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || errno == ERANGE)
        return fallback;
    return value;
}

uint64_t
JsonValue::counter(uint64_t fallback) const
{
    if (kind != Kind::Number || token.empty() || token[0] == '-')
        return fallback;
    errno = 0;
    char *end = nullptr;
    unsigned long long value = std::strtoull(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0' || errno == ERANGE)
        return fallback; // fractional/exponent tokens are not counters
    return value;
}

std::string
JsonValue::str(const std::string &name,
               const std::string &fallback) const
{
    const JsonValue *member = find(name);
    return member && member->kind == Kind::String ? member->text
                                                  : fallback;
}

double
JsonValue::num(const std::string &name, double fallback) const
{
    const JsonValue *member = find(name);
    return member ? member->number(fallback) : fallback;
}

namespace
{

class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    parse(JsonValue &out)
    {
        skipSpace();
        if (!parseValue(out))
            return false;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const char *reason)
    {
        if (error_ && error_->empty()) {
            char buf[160];
            std::snprintf(buf, sizeof(buf), "offset %zu: %s", pos_,
                          reason);
            *error_ = buf;
        }
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            pos_++;
    }

    bool
    literal(const char *word, size_t len)
    {
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        out.begin = pos_;
        char c = text_[pos_];
        bool ok = false;
        switch (c) {
          case '{':
          case '[':
            // Containers recurse: bound the depth so hostile input
            // fails cleanly instead of overflowing the stack.
            if (depth_ >= maxDepth)
                return fail("nesting too deep");
            depth_++;
            ok = c == '{' ? parseObject(out) : parseArray(out);
            depth_--;
            break;
          case '"':
            out.kind = JsonValue::Kind::String;
            ok = parseString(out.text);
            break;
          case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            ok = literal("true", 4) || fail("bad literal");
            break;
          case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            ok = literal("false", 5) || fail("bad literal");
            break;
          case 'n':
            out.kind = JsonValue::Kind::Null;
            ok = literal("null", 4) || fail("bad literal");
            break;
          default:
            ok = parseNumber(out);
            break;
        }
        if (!ok)
            return false;
        out.end = pos_;
        return true;
    }

    bool
    parseNumber(JsonValue &out)
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            pos_++;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            pos_++;
        if (pos_ == start)
            return fail("expected a value");
        out.kind = JsonValue::Kind::Number;
        out.token = text_.substr(start, pos_ - start);
        // Validate by converting once; the token itself is kept.
        errno = 0;
        char *end = nullptr;
        std::strtod(out.token.c_str(), &end);
        if (end != out.token.c_str() + out.token.size())
            return fail("malformed number");
        return true;
    }

    bool
    parseString(std::string &out)
    {
        pos_++; // opening quote
        out.clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '"') {
                pos_++;
                return true;
            }
            if (c == '\\') {
                pos_++;
                if (pos_ >= text_.size())
                    break;
                char esc = text_[pos_];
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos_ + 4 >= text_.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 1; i <= 4; i++) {
                        char h = text_[pos_ + i];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= h - '0';
                        else if (h >= 'a' && h <= 'f')
                            code |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F')
                            code |= h - 'A' + 10;
                        else
                            return fail("bad \\u escape");
                    }
                    pos_ += 4;
                    // The writer only escapes control characters;
                    // encode the code point as UTF-8 for generality.
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xc0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                pos_++;
            } else {
                out += c;
                pos_++;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        pos_++; // '{'
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            pos_++;
            return true;
        }
        for (;;) {
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            pos_++;
            skipSpace();
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.members.emplace_back(std::move(key),
                                     std::move(value));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                pos_++;
                continue;
            }
            if (text_[pos_] == '}') {
                pos_++;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        pos_++; // '['
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            pos_++;
            return true;
        }
        for (;;) {
            skipSpace();
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.items.push_back(std::move(value));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                pos_++;
                continue;
            }
            if (text_[pos_] == ']') {
                pos_++;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    /** Far deeper than any document the writers emit. */
    static constexpr int maxDepth = 256;

    const std::string &text_;
    std::string *error_;
    size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue &out,
          std::string *error)
{
    if (error)
        error->clear();
    Parser parser(text, error);
    return parser.parse(out);
}

} // namespace lumi
