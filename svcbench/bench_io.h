// Files exchanged between the benchmark's steps, all inside one run
// directory:
//
//   setup.txt          request lines that warm the resident keys, one a line
//   setup_replies.txt  the server's reply to each setup line, same order
//   stream.tsv         the load stream: "<conn>\t<due_us>\t<line>"; due_us
//                      is the open-loop send instant after the load start
//                      (-1 for a closed loop, which sends on each reply)
//   results.tsv        one row per sent request:
//                      "<idx>\t<sent_us>\t<latency_us>\t<lag_us>\t<reply>"
//                      (idx is the stream row; latency_us -1 when no reply)
//   load.json          generator summary: server CPU, connect times and
//                      the final `stats` reply
//   verdicts.tsv       "<idx>\t<ok|error|wrong>" per answered request;
//                      setup rows are written as "s<i>"
//   trace.json         per-layer metrics of the traced replay (--trace)
//   spans.tsv          every span of the traced replay (--trace)
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace svcbench {

struct StreamRow {
  std::size_t conn = 0;
  std::int64_t due_us = -1;
  std::string line;
};

struct ResultRow {
  std::size_t idx = 0;
  std::int64_t sent_us = 0;
  std::int64_t latency_us = -1;
  std::int64_t lag_us = 0;
  std::string reply;
};

std::vector<std::string> read_lines(const std::string& path);
std::vector<StreamRow> read_stream(const std::string& path);
std::vector<ResultRow> read_results(const std::string& path);

/// The request verb: the first word of a protocol line.
std::string verb_of(const std::string& line);

/// Linear-interpolated quantile of `values` (sorted in place); 0 when empty.
double quantile(std::vector<double>& values, double q);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int run_load(int argc, const char* const* argv);
int run_check(int argc, const char* const* argv);

}  // namespace svcbench
