#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace polaris::util {

std::string_view trim(std::string_view text) {
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!text.empty() && is_space(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && is_space(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

std::vector<std::string> split(std::string_view text, std::string_view delims) {
  std::vector<std::string> tokens;
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t end = text.find_first_of(delims, begin);
    const std::size_t stop = (end == std::string_view::npos) ? text.size() : end;
    if (stop > begin) tokens.emplace_back(text.substr(begin, stop - begin));
    begin = stop + 1;
  }
  return tokens;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string format_double(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", decimals, value);
  return buffer;
}

std::string numbered(std::string_view prefix, std::size_t n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

void appendf(std::string& out, const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list again;
  va_copy(again, args);
  const int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  if (needed > 0) {
    const std::size_t old_size = out.size();
    const auto length = static_cast<std::size_t>(needed);
    out.resize(old_size + length + 1);
    std::vsnprintf(out.data() + old_size, length + 1, format, again);
    out.resize(old_size + length);
  }
  va_end(again);
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          appendf(out, "\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace polaris::util
