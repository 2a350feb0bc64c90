#include "bench_io.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace svcbench {
namespace {

std::vector<std::string> split_tabs(const std::string& line,
                                    std::size_t fields) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (out.size() + 1 < fields) {
    const std::size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      throw std::runtime_error("malformed row: " + line);
    }
    out.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
  out.push_back(line.substr(start));
  return out;
}

}  // namespace

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::vector<StreamRow> read_stream(const std::string& path) {
  std::vector<StreamRow> rows;
  for (const std::string& line : read_lines(path)) {
    const auto f = split_tabs(line, 3);
    rows.push_back({std::stoul(f[0]), std::stoll(f[1]), f[2]});
  }
  return rows;
}

std::vector<ResultRow> read_results(const std::string& path) {
  std::vector<ResultRow> rows;
  for (const std::string& line : read_lines(path)) {
    const auto f = split_tabs(line, 5);
    rows.push_back({std::stoul(f[0]), std::stoll(f[1]), std::stoll(f[2]),
                    std::stoll(f[3]), f[4]});
  }
  return rows;
}

std::string verb_of(const std::string& line) {
  return line.substr(0, line.find(' '));
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

}  // namespace svcbench
