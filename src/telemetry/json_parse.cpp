#include "telemetry/json_parse.h"

#include <cctype>
#include <charconv>
#include <limits>

namespace ga::telemetry {
namespace {

const Json_value k_null_value{};

/// `number` truncated toward zero and clamped to the int64 range; a plain
/// cast of an out-of-range double (say, the literal 1e300) is undefined.
std::int64_t clamp_to_int64(double number)
{
    constexpr double k_two_63 = 9223372036854775808.0;
    if (number >= k_two_63) return std::numeric_limits<std::int64_t>::max();
    if (number < -k_two_63) return std::numeric_limits<std::int64_t>::min();
    return static_cast<std::int64_t>(number);
}

class Parser {
public:
    explicit Parser(std::string_view text) : text_{text} {}

    Json_parse_result run()
    {
        Json_parse_result result;
        skip_ws();
        if (!parse_value(result.value)) {
            result.error = error_;
            result.value = Json_value{};
            return result;
        }
        skip_ws();
        if (pos_ != text_.size()) {
            fail("trailing garbage");
            result.error = error_;
            result.value = Json_value{};
            return result;
        }
        result.ok = true;
        return result;
    }

private:
    bool fail(const char* what)
    {
        if (error_.empty()) {
            error_ = what;
            error_.append(" at byte ");
            error_.append(std::to_string(pos_));
        }
        return false;
    }

    void skip_ws()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    [[nodiscard]] char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    bool consume(char expected)
    {
        if (peek() != expected) return false;
        ++pos_;
        return true;
    }

    bool parse_value(Json_value& out)
    {
        if (++depth_ > k_max_depth) return fail("nesting too deep");
        bool ok = false;
        switch (peek()) {
        case '{': ok = parse_object(out); break;
        case '[': ok = parse_array(out); break;
        case '"':
            out.kind = Json_value::Kind::string;
            ok = parse_string(out.string);
            break;
        case 't':
        case 'f': ok = parse_literal(out); break;
        case 'n': ok = parse_literal(out); break;
        default: ok = parse_number(out); break;
        }
        --depth_;
        return ok;
    }

    bool parse_literal(Json_value& out)
    {
        const auto match = [this](std::string_view word) {
            if (text_.substr(pos_, word.size()) != word) return false;
            pos_ += word.size();
            return true;
        };
        if (match("true")) {
            out.kind = Json_value::Kind::boolean;
            out.boolean = true;
            return true;
        }
        if (match("false")) {
            out.kind = Json_value::Kind::boolean;
            out.boolean = false;
            return true;
        }
        if (match("null")) {
            out.kind = Json_value::Kind::null;
            return true;
        }
        return fail("expected literal");
    }

    bool parse_number(Json_value& out)
    {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
        bool integral = true;
        if (peek() == '.') {
            integral = false;
            ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            integral = false;
            ++pos_;
            if (peek() == '+' || peek() == '-') ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
        }
        const std::string_view token = text_.substr(start, pos_ - start);
        if (token.empty() || token == "-") return fail("expected value");
        const char* first = token.data();
        const char* last = token.data() + token.size();
        out.kind = Json_value::Kind::number;
        out.integral = integral;
        if (integral) {
            if (std::from_chars(first, last, out.integer).ec != std::errc{}) {
                return fail("bad integer");
            }
            out.number = static_cast<double>(out.integer);
            return true;
        }
        if (std::from_chars(first, last, out.number).ec != std::errc{}) {
            return fail("bad number");
        }
        out.integer = clamp_to_int64(out.number);
        return true;
    }

    bool parse_string(std::string& out)
    {
        if (!consume('"')) return fail("expected string");
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"') return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size()) break;
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                unsigned code = 0;
                if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4U;
                    if (h >= '0' && h <= '9') {
                        code += static_cast<unsigned>(h - '0');
                    } else if (h >= 'a' && h <= 'f') {
                        code += static_cast<unsigned>(h - 'a' + 10);
                    } else if (h >= 'A' && h <= 'F') {
                        code += static_cast<unsigned>(h - 'A' + 10);
                    } else {
                        return fail("bad \\u escape");
                    }
                }
                // UTF-8 encode the BMP code point (the writer only escapes
                // control characters, all below 0x80; the rest is coverage).
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(static_cast<char>(0xC0U | (code >> 6U)));
                    out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
                } else {
                    out.push_back(static_cast<char>(0xE0U | (code >> 12U)));
                    out.push_back(static_cast<char>(0x80U | ((code >> 6U) & 0x3FU)));
                    out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
                }
                break;
            }
            default: return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool parse_array(Json_value& out)
    {
        consume('[');
        out.kind = Json_value::Kind::array;
        skip_ws();
        if (consume(']')) return true;
        while (true) {
            Json_value element;
            skip_ws();
            if (!parse_value(element)) return false;
            out.array.push_back(std::move(element));
            skip_ws();
            if (consume(']')) return true;
            if (!consume(',')) return fail("expected ',' or ']'");
        }
    }

    bool parse_object(Json_value& out)
    {
        consume('{');
        out.kind = Json_value::Kind::object;
        skip_ws();
        if (consume('}')) return true;
        while (true) {
            skip_ws();
            std::string key;
            if (!parse_string(key)) return false;
            skip_ws();
            if (!consume(':')) return fail("expected ':'");
            skip_ws();
            Json_value member;
            if (!parse_value(member)) return false;
            out.object[std::move(key)] = std::move(member);
            skip_ws();
            if (consume('}')) return true;
            if (!consume(',')) return fail("expected ',' or '}'");
        }
    }

    static constexpr int k_max_depth = 256;

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

} // namespace

const Json_value& Json_value::at(std::string_view key) const
{
    if (kind != Kind::object) return k_null_value;
    const auto it = object.find(std::string{key});
    return it != object.end() ? it->second : k_null_value;
}

std::int64_t Json_value::as_int(std::int64_t fallback) const
{
    if (kind == Kind::number) return integral ? integer : clamp_to_int64(number);
    if (kind == Kind::boolean) return boolean ? 1 : 0;
    return fallback;
}

double Json_value::as_double(double fallback) const
{
    if (kind == Kind::number) return number;
    if (kind == Kind::boolean) return boolean ? 1.0 : 0.0;
    return fallback;
}

Json_parse_result parse_json(std::string_view text)
{
    return Parser{text}.run();
}

} // namespace ga::telemetry
