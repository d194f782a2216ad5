#include "util/parse.hpp"

#include <charconv>
#include <stdexcept>
#include <system_error>

namespace gasched::util {

namespace {

/// All of trimmed `text` read by std::from_chars as a T.
template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  text = trim_blanks(text);
  T out{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return out;
}

template <typename T>
T must(std::optional<T> value, std::string_view name, std::string_view text,
       const char* kind) {
  if (!value) {
    throw std::runtime_error(std::string(name) + ": expected " + kind +
                             ", got '" + std::string(text) + "'");
  }
  return *value;
}

}  // namespace

std::string_view trim_blanks(std::string_view text) {
  constexpr std::string_view kBlanks = " \t\r\n";
  const auto first = text.find_first_not_of(kBlanks);
  if (first == std::string_view::npos) return {};
  const auto last = text.find_last_not_of(kBlanks);
  return text.substr(first, last - first + 1);
}

std::optional<std::uint64_t> parse_count(std::string_view text) {
  return parse_whole<std::uint64_t>(text);
}

std::optional<std::int64_t> parse_int(std::string_view text) {
  return parse_whole<std::int64_t>(text);
}

std::optional<double> parse_double(std::string_view text) {
  return parse_whole<double>(text);
}

std::optional<bool> parse_bool(std::string_view text) {
  text = trim_blanks(text);
  if (text == "1" || text == "true" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "0" || text == "false" || text == "no" || text == "off") {
    return false;
  }
  return std::nullopt;
}

std::uint64_t read_count(std::string_view name, std::string_view text) {
  return must(parse_count(text), name, text, "a non-negative integer");
}

std::int64_t read_int(std::string_view name, std::string_view text) {
  return must(parse_int(text), name, text, "an integer");
}

double read_double(std::string_view name, std::string_view text) {
  return must(parse_double(text), name, text, "a number");
}

bool read_bool(std::string_view name, std::string_view text) {
  return must(parse_bool(text), name, text,
              "a boolean (1/true/yes/on or 0/false/no/off)");
}

std::vector<std::string> split_list(std::string_view name,
                                    std::string_view text) {
  std::vector<std::string> items;
  const std::string_view whole = trim_blanks(text);
  if (whole.empty()) return items;
  std::size_t begin = 0;
  while (true) {
    const auto comma = whole.find(',', begin);
    const std::string_view item = trim_blanks(whole.substr(
        begin, comma == std::string_view::npos ? comma : comma - begin));
    if (item.empty()) {
      throw std::runtime_error(std::string(name) +
                               ": empty item in the list '" +
                               std::string(whole) + "'");
    }
    items.emplace_back(item);
    if (comma == std::string_view::npos) return items;
    begin = comma + 1;
  }
}

}  // namespace gasched::util
