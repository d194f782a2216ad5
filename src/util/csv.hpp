#pragma once
// Minimal CSV writing/reading used by the bench harness to emit figure
// data series and by the workload module to persist task traces.

#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace gasched::util {

/// Streaming CSV writer. Cells are quoted only when required (comma,
/// quote, or newline present). The writer flushes on destruction.
class CsvWriter {
 public:
  /// Opens `path` for writing — truncating by default, appending when
  /// `append` is true (the resume path of the streaming result sinks).
  /// Throws std::runtime_error on failure.
  explicit CsvWriter(const std::filesystem::path& path, bool append = false);

  /// Writes one row of cells.
  void row(const std::vector<std::string>& cells);

  /// Convenience: writes a row of doubles with full precision.
  void row_numeric(const std::vector<double>& cells);

  /// Flushes buffered rows to disk (crash-safety point for streaming
  /// writers that append as results complete).
  void flush();

  /// Underlying path.
  const std::filesystem::path& path() const noexcept { return path_; }

  /// Quotes `cell` exactly as row() would (used by format_csv_row).
  static std::string escape(std::string_view cell);

 private:
  std::filesystem::path path_;
  std::ofstream out_;
};

/// Formats one row of cells exactly as CsvWriter would write it (no
/// trailing newline). Lets resume scans compare an existing file's
/// header byte-for-byte against the schema a fresh writer would emit.
std::string format_csv_row(const std::vector<std::string>& cells);

/// Parses one CSV line into cells, honouring double-quote escaping.
std::vector<std::string> parse_csv_line(std::string_view line);

/// Reads an entire CSV file into rows of cells. Throws on open failure.
std::vector<std::vector<std::string>> read_csv(
    const std::filesystem::path& path);

/// Formats a double compactly (shortest round-trip-ish, fixed fallback).
std::string format_double(double v);

}  // namespace gasched::util
