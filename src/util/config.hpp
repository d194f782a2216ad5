#pragma once
// Typed key/value text: INI-style configuration files for declarative
// experiment scenarios, and the per-section parameter views built from
// them (exp::Params / exp::SchedulerParams are this class):
//
//     # comment
//     [cluster]
//     processors = 50
//     rate_lo = 10
//
// Sections become key prefixes ("cluster.processors"). Used by the
// run_scenario example so experiments can be shared as text files.
//
// Value grammar — the one every typed value of this repository follows,
// INI keys, command-line flags (util::Cli), comma-list items and the
// GASCHED_THREADS variable alike (util/parse.hpp reads them all). The
// whole value, blank-trimmed, must be one of:
//
//   count    decimal digits, 0 .. 18446744073709551615 (sizes, seeds)
//   integer  an optional '-', then decimal digits (64-bit signed)
//   number   [-]digits[.digits][e[+|-]digits], or inf / nan
//   boolean  1, true, yes, on  |  0, false, no, off
//   list     comma-separated items, each blank-trimmed; an empty item
//            (",," or a trailing comma) is an error
//
// No leading '+', no hex, no trailing text ("12x", "1.5x"), no partial
// value. A value that does not parse, or does not fit its type, throws
// std::runtime_error naming the key: "scenario.seed: expected a
// non-negative integer, got '-1'".

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace gasched::util {

/// Flat "section.key" → value map with typed getters. Missing keys return
/// the caller's fallback; values outside the grammar above throw.
class Config {
 public:
  Config() = default;

  /// Parses INI-style text. Throws std::runtime_error on malformed lines
  /// (anything that is not blank, comment, [section], or key = value).
  static Config parse(const std::string& text);

  /// Reads and parses a file. Throws std::runtime_error on I/O failure.
  static Config load(const std::filesystem::path& path);

  /// All keys of one section, prefix stripped ("[scheduler] batch_size =
  /// 77" → key "batch_size"): the [scheduler] section becomes the
  /// SchedulerParams of every factory, the [workload] section the
  /// per-family keys of a distribution factory. Its getters' errors still
  /// name the full key ("scheduler.batch_size"). An unknown section
  /// yields an empty Config.
  Config section(const std::string& name) const;

  /// Getters with defaults, by "section.key" (or just "key" for the
  /// implicit top-level section, or in a section() view).
  std::string get(const std::string& key, const std::string& fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// A count, size or seed.
  std::size_t get_size(const std::string& key, std::size_t fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// True when the key is present.
  bool has(const std::string& key) const;

  /// Every key/value pair, in lexicographic key order.
  const std::map<std::string, std::string>& entries() const noexcept {
    return values_;
  }

  /// Number of key/value pairs.
  std::size_t size() const noexcept { return values_.size(); }

  /// Setters (fluent, so call sites can chain). One constrained template
  /// covers every arithmetic type unambiguously (int literals, unsigned,
  /// size_t, float, double, ...); floating-point values are stored with
  /// round-trip precision, so a getter reads back the same bits.
  Config& set(const std::string& key, std::string value);
  Config& set(const std::string& key, const char* value);
  Config& set(const std::string& key, bool value);
  template <typename T,
            std::enable_if_t<std::is_arithmetic_v<T> &&
                                 !std::is_same_v<T, bool>,
                             int> = 0>
  Config& set(const std::string& key, T value) {
    if constexpr (std::is_floating_point_v<T>) {
      return set_double(key, static_cast<double>(value));
    } else if constexpr (std::is_signed_v<T>) {
      return set(key, std::to_string(static_cast<long long>(value)));
    } else {
      return set(key, std::to_string(static_cast<unsigned long long>(value)));
    }
  }

 private:
  Config& set_double(const std::string& key, double value);
  /// The value of `key` read by `parse`, `fallback` when absent; on a bad
  /// value, `read` throws naming the full key (section included).
  template <typename T>
  T typed(const std::string& key, T fallback,
          std::optional<T> (*parse)(std::string_view),
          T (*read)(std::string_view, std::string_view)) const;

  std::map<std::string, std::string> values_;
  /// "section." for a section() view, empty otherwise.
  std::string prefix_;
};

}  // namespace gasched::util
