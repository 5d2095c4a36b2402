// Small string utilities shared by the Verilog front-end, the report and
// JSON writers, and the telemetry renderers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace polaris::util {

/// Remove leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// Split on any of the given delimiter characters; empty tokens are dropped.
[[nodiscard]] std::vector<std::string> split(std::string_view text,
                                             std::string_view delims);

/// True if `text` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

/// Lower-case copy (ASCII).
[[nodiscard]] std::string to_lower(std::string_view text);

/// printf-style double formatting with fixed decimals (for report tables).
[[nodiscard]] std::string format_double(double value, int decimals);

/// `prefix` followed by the decimal digits of `n` ("g", 12 -> "g12"): net,
/// port and feature names. Built by appending, which GCC 12 does not
/// misread as an overlapping copy the way it does `"g" + std::to_string(n)`
/// (-Wrestrict).
[[nodiscard]] std::string numbered(std::string_view prefix, std::size_t n);

/// printf onto the end of `out`, sized exactly: a long path or name is
/// never truncated.
void appendf(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

/// `text` as the body of a JSON string: quote, backslash and control
/// characters escaped.
[[nodiscard]] std::string json_escape(std::string_view text);

}  // namespace polaris::util
