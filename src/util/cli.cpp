#include "util/cli.hpp"

#include <charconv>
#include <cstdlib>
#include <stdexcept>

namespace gasched::util {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    } else {
      value = "true";
    }
    flags_[name] = value;
  }
}

bool Cli::has(const std::string& name) const { return flags_.contains(name); }

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  std::int64_t out = 0;
  const auto& s = it->second;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), out);
  return res.ec == std::errc{} ? out : fallback;
}

std::size_t Cli::get_size(const std::string& name,
                          std::size_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  std::size_t out = 0;
  const auto& s = it->second;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::runtime_error("--" + name +
                             ": expected a non-negative integer, got '" + s +
                             "'");
  }
  return out;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (...) {
    return fallback;
  }
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const auto& v = it->second;
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

std::optional<std::string> env_string(const std::string& name) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

bool bench_full_scale() {
  const auto v = env_string("GASCHED_BENCH_SCALE");
  return v && (*v == "full" || *v == "FULL" || *v == "paper");
}

}  // namespace gasched::util
