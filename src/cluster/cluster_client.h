// Multi-worker RPC fabric for the cluster coordinator.
//
// One persistent TcpClient per worker (lazily connected, serialized by a
// per-worker mutex so fan-out threads to *different* workers proceed in
// parallel), liveness flags, and fresh-connection heartbeats.  Transport
// failures — connect/send/recv errors or garbled replies, after the
// per-call deadline + bounded-retry ladder inside TcpClient — surface as
// TransportError so the coordinator can distinguish "worker gone, fail
// the slice over" from an application `error` reply (which no failover
// can cure and is returned to the caller as-is).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/client.h"
#include "service/protocol.h"

namespace rnt::cluster {

/// One worker process: where to reach it and its share of the scenario
/// load (plan_slices sizes slices proportionally to `weight`).
struct WorkerEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  double weight = 1.0;
};

/// A worker could not be reached (or answered garbage) after the retry
/// budget.  Application `error` replies are NOT transport errors.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ClusterClient {
 public:
  /// `options` applies per call: connect/reply deadlines plus the bounded
  /// retry-with-backoff ladder (see service::ClientOptions).
  ClusterClient(std::vector<WorkerEndpoint> workers,
                service::ClientOptions options);

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  std::size_t size() const { return peers_.size(); }
  const WorkerEndpoint& endpoint(std::size_t worker) const;

  bool alive(std::size_t worker) const;
  std::size_t alive_count() const;

  /// Marks a worker permanently dead; subsequent call()s to it throw
  /// TransportError immediately.  Workers do not come back: its slices
  /// stay with the survivors for the coordinator's lifetime.
  void mark_dead(std::size_t worker);

  /// One request/reply exchange with `worker`.  Throws TransportError on
  /// transport failure (the caller decides whether to mark the worker
  /// dead); returns error replies untouched.
  service::Response call(std::size_t worker, const service::Request& request);

  /// Fresh short-deadline connection, single attempt, `heartbeat` verb.
  /// Returns false on any failure.  Runs beside an in-flight call()
  /// without blocking on the persistent connection's mutex.
  bool heartbeat(std::size_t worker, double deadline_s);

 private:
  struct Peer {
    WorkerEndpoint endpoint;
    std::mutex mu;
    std::unique_ptr<service::TcpClient> conn;
    std::atomic<bool> alive{true};
  };

  Peer& peer(std::size_t worker);
  const Peer& peer(std::size_t worker) const;

  service::ClientOptions options_;
  std::vector<std::unique_ptr<Peer>> peers_;
};

}  // namespace rnt::cluster
