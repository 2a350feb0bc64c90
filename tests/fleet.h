// An in-process fleet of cluster workers for the loopback tests: N
// ReactorServers, each on its own ephemeral port and loop thread — the
// full wire path, one process.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "service/reactor_server.h"

namespace rnt::testutil {

class Fleet {
 public:
  explicit Fleet(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      auto worker = std::make_unique<Worker>();
      worker->server = std::make_unique<service::ReactorServer>(
          service::ReactorServerConfig{.port = 0,
                                       .threads = 2,
                                       .cache_capacity = 2,
                                       .request_timeout_s = 120.0});
      worker->port = worker->server->port();
      worker->runner =
          std::thread([srv = worker->server.get()] { srv->run(); });
      workers_.push_back(std::move(worker));
    }
  }

  ~Fleet() {
    for (std::size_t i = 0; i < workers_.size(); ++i) kill(i);
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::vector<cluster::WorkerEndpoint> endpoints(
      std::vector<double> weights = {}) const {
    std::vector<cluster::WorkerEndpoint> eps;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      cluster::WorkerEndpoint ep;
      ep.port = workers_[i]->port;
      ep.weight = i < weights.size() ? weights[i] : 1.0;
      eps.push_back(ep);
    }
    return eps;
  }

  /// Stops worker `i` for good and destroys the server, so the listen fd
  /// closes and reconnects are *refused* — exactly like a killed process.
  /// (Merely stopping the server would leave the kernel accept queue
  /// open: a blackhole that costs a full reply deadline per failover.)
  /// Idempotent.
  void kill(std::size_t i) {
    Worker& w = *workers_[i];
    if (w.stopped) return;
    w.stopped = true;
    w.server->stop();
    w.runner.join();
    w.server.reset();
  }

 private:
  struct Worker {
    std::unique_ptr<service::ReactorServer> server;
    std::uint16_t port = 0;
    std::thread runner;
    bool stopped = false;
  };
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace rnt::testutil
