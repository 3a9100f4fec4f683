// Tiny CSV writer for series meant to be re-plotted externally. No bench
// uses it: the benches write BENCH_*.json records (bench/bench_util.hpp).
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace gs {

/// Append-row CSV writer. Opens/truncates on construction, flushes per row.
class CsvWriter {
 public:
  /// Creates/truncates `path` and writes the header row.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// Writes one row; each value is formatted with operator<< semantics.
  void row(const std::vector<std::string>& values);

  /// Convenience: formats doubles with full precision.
  static std::string num(double v);
  static std::string num(std::size_t v);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::size_t columns_;
};

}  // namespace gs
