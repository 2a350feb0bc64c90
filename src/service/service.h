// The in-process tomography service: a request router over the paper's
// algorithms, executing on a fixed thread pool against LRU-cached
// workloads.
//
// One Service owns one WorkloadCache, one ThreadPool and one
// ServiceMetrics.  handle() answers a request synchronously on the calling
// thread; submit() runs it on the pool and returns a future — both paths
// share the router, record metrics, and never throw (failures become
// `error` replies).  Handlers mirror the rnt_cli commands parameter for
// parameter, so a service reply is observably identical to the one-shot
// CLI answer for the same request.
//
// The adaptive verbs (`feed`, `replan`, `pipeline-stats`) are stateful:
// each workload key owns one PipelineSession holding the online estimator,
// drift detector and warm-start replanner.  Sessions pin their
// CachedWorkload with a shared_ptr, so LRU eviction from the cache never
// invalidates a live session's PathSystem or cost model.
#pragma once

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/selection.h"
#include "online/drift_detector.h"
#include "online/link_estimator.h"
#include "online/replanner.h"
#include "service/metrics.h"
#include "service/protocol.h"
#include "service/thread_pool.h"
#include "service/workload_cache.h"

namespace rnt::service {

/// Adaptive re-planning state for one workload: estimator, drift detector
/// and replanner fed by `feed`/`replan` requests.  Request threads
/// serialize on `mu`; the workload shared_ptr keeps the PathSystem and
/// cost model the replanner references alive across cache evictions.
struct PipelineSession {
  explicit PipelineSession(std::shared_ptr<const CachedWorkload> cw);

  std::mutex mu;
  std::shared_ptr<const CachedWorkload> workload;
  online::LinkEstimator estimator;
  online::DriftDetector drift;
  online::Replanner replanner;
  std::size_t feeds = 0;
  std::size_t replans = 0;
  std::size_t drift_triggers = 0;
};

struct ServiceConfig {
  std::size_t threads = 0;         ///< Pool size; 0 = hardware concurrency.
  std::size_t cache_capacity = 8;  ///< Resident workloads (LRU bound).
};

/// Cost of probing every candidate path: what `budget-frac` scales.
double total_cost(const exp::Workload& w);

/// The algorithm dispatcher behind the `select` verb and every rnt_cli
/// command that selects paths, so both front ends run (and reject) the
/// same things.  prob-rome, monte-rome and kernel-rome run `optimizer`
/// (a Selector registry name; "rome" is core::rome) over the cached
/// ProbBound tables, a fresh 50-scenario MonteCarloEr, or the cached
/// bit-packed engine over that same mixture.  select-path and mat-rome
/// bypass the registry and accept only optimizer "rome".  A `kernel` other
/// than kAuto applies only to kernel-rome.  Throws std::invalid_argument
/// on an unknown algorithm or a combination that does not apply.
core::Selection run_algorithm(const CachedWorkload& cw,
                              const std::string& algorithm,
                              const std::string& optimizer,
                              core::KernelMode kernel, double budget);

class Service {
 public:
  explicit Service(ServiceConfig config = {});

  /// Drains in-flight requests (drain-and-join, via ~ThreadPool).
  ~Service() = default;

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Answers on the calling thread.  Never throws: handler errors come
  /// back as error replies (and count toward the error metric).
  Response handle(const Request& request);

  /// Parses one protocol line and answers it; parse errors become error
  /// replies too.
  Response handle_line(const std::string& line);

  /// Runs handle() on the thread pool.  Throws only when the pool is
  /// already shut down.
  std::future<Response> submit(Request request);
  std::future<Response> submit_line(std::string line);

  /// Completion-style variant for event-loop front ends: runs
  /// handle_line() on the pool and invokes `done` with the reply from the
  /// worker thread (the caller re-enters its loop, e.g. via
  /// Reactor::post).  Throws only when the pool is already shut down.
  void submit_line(std::string line, std::function<void(Response)> done);

  /// Stops accepting work and drains the pool.  Idempotent.
  void shutdown() { pool_.shutdown(); }

  WorkloadCache::Counters cache_counters() const { return cache_.counters(); }
  ServiceMetrics::Snapshot metrics() const { return metrics_.snapshot(); }
  std::size_t pool_size() const { return pool_.size(); }

  /// Number of live adaptive pipeline sessions.
  std::size_t session_count() const;

  /// Counts one reply the transport could not deliver (called by the TCP
  /// server when a send fails); surfaces as `transport-errors` in stats.
  void note_transport_error() { metrics_.record_transport_error(); }

  /// Reactor front-end observability: counters and gauges surfaced by
  /// the `stats` verb (in-process callers leave them at zero).
  void note_shed_request() { metrics_.note_shed_request(); }
  void note_shed_connection() { metrics_.note_shed_connection(); }
  void note_idle_timeout() { metrics_.note_idle_timeout(); }
  void note_pipelined_request() { metrics_.note_pipelined_request(); }
  void set_open_connections(std::size_t n) {
    metrics_.set_open_connections(n);
  }
  void set_queue_depth(std::size_t n) { metrics_.set_queue_depth(n); }

  /// Multi-line human-readable metrics/cache dump (printed on shutdown by
  /// the server front end).
  std::string summary() const;

 private:
  Response dispatch(const Request& request);

  /// The pipeline session for `key`, created on first use (building the
  /// workload through the cache when needed).
  std::shared_ptr<PipelineSession> session_for(const WorkloadKey& key);

  WorkloadCache cache_;
  ServiceMetrics metrics_;
  mutable std::mutex sessions_mu_;
  std::map<WorkloadKey, std::shared_ptr<PipelineSession>> sessions_;
  ThreadPool pool_;
};

}  // namespace rnt::service
