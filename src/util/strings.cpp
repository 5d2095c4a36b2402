#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
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

}  // namespace polaris::util
