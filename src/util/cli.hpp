#pragma once
// Tiny command-line flag parser shared by the bench binaries and examples.
//
// Supports `--name value`, `--name=value`, and boolean `--name` forms plus
// environment-variable overrides so the whole bench suite can be scaled
// with GASCHED_BENCH_SCALE=full without editing invocations.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace gasched::util {

/// Parsed command line: flag map plus positional arguments.
class Cli {
 public:
  /// Parses argv. Unknown flags are retained (queryable); malformed input
  /// never throws — a flag without a value is treated as boolean "true".
  Cli(int argc, const char* const* argv);

  /// Program name (argv[0], may be empty).
  const std::string& program() const noexcept { return program_; }

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// True if --name was present.
  bool has(const std::string& name) const;

  /// String flag with default.
  std::string get(const std::string& name, const std::string& fallback) const;

  /// Integer flag with default (returns fallback on parse failure).
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;

  /// Count flag with default. Throws std::runtime_error naming the flag
  /// when its text is not a whole non-negative integer.
  std::size_t get_size(const std::string& name, std::size_t fallback) const;

  /// Double flag with default (returns fallback on parse failure).
  double get_double(const std::string& name, double fallback) const;

  /// Boolean flag: present without value, or value in {1,true,yes,on}.
  bool get_bool(const std::string& name, bool fallback) const;

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Returns environment variable `name` if set and non-empty.
std::optional<std::string> env_string(const std::string& name);

/// True when GASCHED_BENCH_SCALE is "full" — benches then use paper-scale
/// parameters (10,000 tasks, 50 replications) instead of quick defaults.
bool bench_full_scale();

}  // namespace gasched::util
