#pragma once
// Minimal INI-style configuration files for declarative experiment
// scenarios:
//
//     # comment
//     [cluster]
//     processors = 50
//     rate_lo = 10
//
// Sections become key prefixes ("cluster.processors"). Used by the
// run_scenario example so experiments can be shared as text files.

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace gasched::util {

/// Parsed configuration: flat "section.key" → value map.
class Config {
 public:
  Config() = default;

  /// Parses INI-style text. Throws std::runtime_error on malformed lines
  /// (anything that is not blank, comment, [section], or key = value).
  static Config parse(const std::string& text);

  /// Reads and parses a file. Throws std::runtime_error on I/O failure.
  static Config load(const std::filesystem::path& path);

  /// Raw value lookup ("section.key", or just "key" for the implicit
  /// top-level section).
  std::optional<std::string> raw(const std::string& key) const;

  /// Typed getters with defaults (return fallback on missing key; throw
  /// std::runtime_error on unparseable values).
  std::string get(const std::string& key, const std::string& fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// A count or size: get_int() that also throws std::runtime_error,
  /// naming the key, on a negative value.
  std::size_t get_size(const std::string& key, std::size_t fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// True when the key is present.
  bool has(const std::string& key) const;

  /// All key/value pairs of one section, keys stripped of the section
  /// prefix ("[scheduler] batch_size = 77" → {"batch_size", "77"}), in
  /// lexicographic key order. Unknown sections yield an empty vector.
  std::vector<std::pair<std::string, std::string>> section(
      const std::string& name) const;

  /// Number of key/value pairs.
  std::size_t size() const noexcept { return values_.size(); }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace gasched::util
