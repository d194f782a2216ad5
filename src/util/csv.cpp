#include "util/csv.hpp"

#include <charconv>
#include <stdexcept>

namespace gasched::util {

CsvWriter::CsvWriter(const std::filesystem::path& path, bool append)
    : path_(path) {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  out_.open(path, append ? std::ios::app : std::ios::trunc);
  if (!out_) {
    throw std::runtime_error("CsvWriter: cannot open " + path.string());
  }
}

std::string CsvWriter::escape(std::string_view cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(cell);
  std::string out;
  out.reserve(cell.size() + 2);
  out.push_back('"');
  for (char c : cell) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  out_ << format_csv_row(cells) << '\n';
}

void CsvWriter::row_numeric(const std::vector<double>& cells) {
  std::vector<std::string> formatted;
  formatted.reserve(cells.size());
  for (double v : cells) formatted.push_back(format_double(v));
  row(formatted);
}

void CsvWriter::flush() { out_.flush(); }

std::string format_csv_row(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) line.push_back(',');
    line += CsvWriter::escape(cells[i]);
  }
  return line;
}

std::vector<std::string> parse_csv_line(std::string_view line) {
  std::vector<std::string> cells;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      cells.push_back(std::move(cur));
      cur.clear();
    } else if (c != '\r') {
      cur.push_back(c);
    }
  }
  cells.push_back(std::move(cur));
  return cells;
}

std::vector<std::vector<std::string>> read_csv(
    const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_csv: cannot open " + path.string());
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    rows.push_back(parse_csv_line(line));
  }
  return rows;
}

std::string format_double(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 12);
  return std::string(buf, res.ptr);
}

}  // namespace gasched::util
