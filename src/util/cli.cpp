#include "util/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "util/parse.hpp"

namespace gasched::util {

Cli::Cli(int argc, const char* const* argv, std::vector<std::string> booleans)
    : booleans_(std::move(booleans)) {
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
    } else if (i + 1 < argc &&
               std::string_view(argv[i + 1]).rfind("--", 0) != 0 &&
               std::find(booleans_.begin(), booleans_.end(), name) ==
                   booleans_.end()) {
      value = argv[++i];
    } else {
      value = "true";
    }
    flags_[name] = value;
  }
}

void Cli::require_known(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : flags_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      throw std::runtime_error("unknown flag --" + name);
    }
  }
  for (const auto& name : booleans_) (void)get_bool(name, false);
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
  return it == flags_.end() ? fallback : read_int("--" + name, it->second);
}

std::size_t Cli::get_size(const std::string& name,
                          std::size_t fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : read_count("--" + name, it->second);
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback
                            : read_double("--" + name, it->second);
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : read_bool("--" + name, it->second);
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
