#pragma once
// The one reader for typed text values. Every number or boolean that
// reaches the library as text — an INI key (util::Config, and so every
// [section] parameter view), a command-line flag (util::Cli), a comma
// list item, a CSV/JSONL index field, an axis label, or the
// GASCHED_THREADS variable — is converted here, so all of them accept
// and reject the same texts. The grammar is stated in util/config.hpp.
//
// The parse_* functions return nothing, never a partial value, when the
// whole (blank-trimmed) text is not one value of the type. The read_*
// forms throw std::runtime_error with the one error text:
//
//     <name>: expected <kind>, got '<text>'
//
// where <name> is the key ("scenario.seed"), flag ("--tasks") or
// variable ("GASCHED_THREADS") the text came from.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gasched::util {

/// `text` without leading and trailing blanks (space, tab, CR, LF).
std::string_view trim_blanks(std::string_view text);

/// A count: decimal digits only (no sign, no '+', no hex), in range of
/// std::uint64_t.
std::optional<std::uint64_t> parse_count(std::string_view text);
/// A signed integer: an optional '-' then decimal digits, in range of
/// std::int64_t.
std::optional<std::int64_t> parse_int(std::string_view text);
/// A double in the general format ("-2", "0.5", "9e5", "inf",
/// "nan"); no '+', no hex, and finite text must not overflow.
std::optional<double> parse_double(std::string_view text);
/// A boolean: 1/true/yes/on or 0/false/no/off.
std::optional<bool> parse_bool(std::string_view text);

std::uint64_t read_count(std::string_view name, std::string_view text);
std::int64_t read_int(std::string_view name, std::string_view text);
double read_double(std::string_view name, std::string_view text);
bool read_bool(std::string_view name, std::string_view text);

/// The items of a comma list, each blank-trimmed. Blank text is the empty
/// list; an empty item ("a,,b", a trailing comma) throws
/// std::runtime_error naming `name`.
std::vector<std::string> split_list(std::string_view name,
                                    std::string_view text);

}  // namespace gasched::util
