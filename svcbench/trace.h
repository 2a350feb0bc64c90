// The traced in-process replay behind `svcbench check --trace`.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "bench_io.h"
#include "util/json.h"

namespace svcbench {

/// Replays the first `sample` answered requests (by stream position)
/// twice in this process: once through Service::handle_line,
/// untraced, as the reference time, and once decomposed into direct calls
/// of each layer's public functions, each call wrapped in a span.  Adds
/// fixed probes of the pool hop, the metrics snapshot and the workload
/// cache, writes every span to <dir>/spans.tsv, and returns the per-layer
/// metrics by name.
rnt::util::Json run_trace(const std::string& dir,
                          const std::vector<std::string>& setup,
                          const std::vector<StreamRow>& stream,
                          const std::vector<ResultRow>& results,
                          std::size_t sample);

}  // namespace svcbench
