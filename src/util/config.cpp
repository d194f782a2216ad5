#include "util/config.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/parse.hpp"

namespace gasched::util {

Config Config::parse(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  std::string section;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view t = trim_blanks(line);
    if (t.empty() || t[0] == '#' || t[0] == ';') continue;
    if (t.front() == '[') {
      if (t.back() != ']' || t.size() < 3) {
        throw std::runtime_error("Config: bad section at line " +
                                 std::to_string(line_no));
      }
      section = trim_blanks(t.substr(1, t.size() - 2));
      continue;
    }
    const auto eq = t.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error("Config: expected key = value at line " +
                               std::to_string(line_no));
    }
    const std::string key(trim_blanks(t.substr(0, eq)));
    if (key.empty()) {
      throw std::runtime_error("Config: empty key at line " +
                               std::to_string(line_no));
    }
    cfg.values_[section.empty() ? key : section + "." + key] =
        trim_blanks(t.substr(eq + 1));
  }
  return cfg;
}

Config Config::load(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("Config::load: cannot open " + path.string());
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

Config Config::section(const std::string& name) const {
  Config out;
  out.prefix_ = prefix_ + name + ".";
  const std::string prefix = name + ".";
  for (auto it = values_.lower_bound(prefix); it != values_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.values_.emplace(it->first.substr(prefix.size()), it->second);
  }
  return out;
}

bool Config::has(const std::string& key) const {
  return values_.contains(key);
}

std::string Config::get(const std::string& key,
                        const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

template <typename T>
T Config::typed(const std::string& key, T fallback,
                std::optional<T> (*parse)(std::string_view),
                T (*read)(std::string_view, std::string_view)) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  // Parse in place: a getter on a present, well-formed key allocates
  // nothing (the serving runtime reads its arrival parameters inside an
  // allocation-counted window). Only a bad value builds the key's name.
  if (const auto v = parse(it->second)) return *v;
  return read(prefix_ + key, it->second);
}

double Config::get_double(const std::string& key, double fallback) const {
  return typed(key, fallback, parse_double, read_double);
}

std::int64_t Config::get_int(const std::string& key,
                             std::int64_t fallback) const {
  return typed(key, fallback, parse_int, read_int);
}

std::size_t Config::get_size(const std::string& key,
                             std::size_t fallback) const {
  return typed<std::uint64_t>(key, fallback, parse_count, read_count);
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  return typed(key, fallback, parse_bool, read_bool);
}

Config& Config::set(const std::string& key, std::string value) {
  values_[key] = std::move(value);
  return *this;
}

Config& Config::set(const std::string& key, const char* value) {
  return set(key, std::string(value));
}

Config& Config::set(const std::string& key, bool value) {
  return set(key, std::string(value ? "true" : "false"));
}

Config& Config::set_double(const std::string& key, double value) {
  std::ostringstream ss;
  ss.precision(std::numeric_limits<double>::max_digits10);
  ss << value;
  return set(key, ss.str());
}

}  // namespace gasched::util
