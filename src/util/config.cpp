#include "util/config.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace gasched::util {

namespace {

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return {};
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

}  // namespace

Config Config::parse(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  std::string section;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#' || t[0] == ';') continue;
    if (t.front() == '[') {
      if (t.back() != ']' || t.size() < 3) {
        throw std::runtime_error("Config: bad section at line " +
                                 std::to_string(line_no));
      }
      section = trim(t.substr(1, t.size() - 2));
      continue;
    }
    const auto eq = t.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("Config: expected key = value at line " +
                               std::to_string(line_no));
    }
    const std::string key = trim(t.substr(0, eq));
    const std::string value = trim(t.substr(eq + 1));
    if (key.empty()) {
      throw std::runtime_error("Config: empty key at line " +
                               std::to_string(line_no));
    }
    cfg.values_[section.empty() ? key : section + "." + key] = value;
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

std::optional<std::string> Config::raw(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

bool Config::has(const std::string& key) const {
  return values_.contains(key);
}

std::vector<std::pair<std::string, std::string>> Config::section(
    const std::string& name) const {
  std::vector<std::pair<std::string, std::string>> out;
  const std::string prefix = name + ".";
  for (auto it = values_.lower_bound(prefix); it != values_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.emplace_back(it->first.substr(prefix.size()), it->second);
  }
  return out;
}

std::string Config::get(const std::string& key,
                        const std::string& fallback) const {
  return raw(key).value_or(fallback);
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const double out = std::stod(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing junk");
    return out;
  } catch (const std::exception&) {
    throw std::runtime_error("Config: bad numeric value for " + key + ": " +
                             *v);
  }
}

std::int64_t Config::get_int(const std::string& key,
                             std::int64_t fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const long long out = std::stoll(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing junk");
    return out;
  } catch (const std::exception&) {
    throw std::runtime_error("Config: bad integer value for " + key + ": " +
                             *v);
  }
}

std::size_t Config::get_size(const std::string& key,
                             std::size_t fallback) const {
  if (!has(key)) return fallback;
  const std::int64_t v = get_int(key, 0);
  if (v < 0) {
    throw std::runtime_error("Config: negative value for " + key + ": " +
                             std::to_string(v));
  }
  return static_cast<std::size_t>(v);
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  throw std::runtime_error("Config: bad boolean value for " + key + ": " +
                           *v);
}

}  // namespace gasched::util
