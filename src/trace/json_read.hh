/**
 * @file
 * Minimal recursive-descent JSON reader, the counterpart of the
 * streaming JsonWriter (json.hh).
 *
 * The campaign result cache stores finished runs as run-report JSON
 * and must load them back without simulating, so this parser builds
 * a small DOM. Two properties matter to that consumer:
 *
 *  - every value remembers its [begin, end) byte range in the source
 *    text, so an embedded document (the spliced stat-registry dump)
 *    can be re-extracted *byte-identically* instead of re-serialized;
 *  - object members keep source order, and numbers keep their raw
 *    token, so integer counters round-trip without a double detour.
 *
 * The grammar is strict JSON plus one writer-ism: JsonWriter emits
 * non-finite doubles as null, which reads back as NaN through
 * JsonValue::number() when a number is expected.
 */

#ifndef LUMI_TRACE_JSON_READ_HH
#define LUMI_TRACE_JSON_READ_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lumi
{

/** One parsed JSON value (tree-owning). */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    /** Raw source token of a number (sign/digits as written). */
    std::string token;
    /** Decoded string contents (String kind). */
    std::string text;
    std::vector<JsonValue> items; ///< Array elements
    /** Object members in source order. */
    std::vector<std::pair<std::string, JsonValue>> members;
    /** Byte range of this value in the parsed text. */
    size_t begin = 0;
    size_t end = 0;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** Member lookup; null when absent or not an object. */
    const JsonValue *find(const std::string &name) const;

    /** Number as double; NaN for null, @p fallback otherwise. */
    double number(double fallback = 0.0) const;

    /** Number as uint64 via the raw token; @p fallback if invalid. */
    uint64_t counter(uint64_t fallback = 0) const;

    /** Member string value, or @p fallback. */
    std::string str(const std::string &name,
                    const std::string &fallback = "") const;

    /** Member number value, or @p fallback. */
    double num(const std::string &name, double fallback = 0.0) const;
};

/**
 * Parse @p text into @p out. On failure returns false and, when
 * @p error is non-null, stores a one-line "offset N: reason"
 * description. Trailing whitespace is allowed; trailing garbage is
 * an error, and so is nesting arrays/objects more than 256 deep.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string *error = nullptr);

} // namespace lumi

#endif // LUMI_TRACE_JSON_READ_HH
