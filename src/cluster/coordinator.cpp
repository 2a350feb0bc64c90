#include "cluster/coordinator.h"

#include <chrono>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "service/protocol.h"

namespace rnt::cluster {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string join_csv(const std::vector<std::size_t>& values) {
  std::string csv;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) csv += ',';
    csv += std::to_string(values[i]);
  }
  return csv;
}

std::vector<std::size_t> parse_csv(const std::string& csv) {
  std::vector<std::size_t> values;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    std::size_t used = 0;
    const unsigned long long value = std::stoull(token, &used);
    if (used != token.size()) {
      throw std::runtime_error("cluster: bad integer in worker reply: " +
                               token);
    }
    values.push_back(static_cast<std::size_t>(value));
  }
  return values;
}

}  // namespace

Coordinator::Coordinator(const service::WorkloadKey& key,
                         std::vector<WorkerEndpoint> workers,
                         CoordinatorConfig config)
    : key_(key),
      config_(config),
      workload_(cache_.get(key)),
      client_(std::move(workers), config.rpc) {
  std::vector<double> weights;
  weights.reserve(client_.size());
  for (std::size_t w = 0; w < client_.size(); ++w) {
    weights.push_back(client_.endpoint(w).weight);
  }
  slices_ = plan_slices(engine().scenario_count(), weights);
  owners_.resize(slices_.size());
  for (std::size_t i = 0; i < owners_.size(); ++i) owners_[i] = i;
}

Coordinator::~Coordinator() { stop_heartbeats(); }

const core::KernelErEngine& Coordinator::engine() const {
  return workload_->kernel_engine(config_.runs);
}

std::vector<service::Response> Coordinator::hello() {
  std::vector<service::Response> replies(client_.size());
  for (std::size_t w = 0; w < client_.size(); ++w) {
    const Clock::time_point start = Clock::now();
    try {
      service::Request r;
      r.type = service::RequestType::kWorkerHello;
      r.params["client"] = "coordinator";
      replies[w] = client_.call(w, r);
      metrics_.record(service::RequestType::kWorkerHello, replies[w].ok,
                      seconds_since(start));
    } catch (const TransportError& e) {
      metrics_.record(service::RequestType::kWorkerHello, false,
                      seconds_since(start));
      note_worker_down(w);
      replies[w] = service::Response::failure(e.what());
    }
  }
  if (client_.alive_count() == 0) {
    throw std::runtime_error("cluster: no worker reachable");
  }
  return replies;
}

double Coordinator::evaluate(const std::vector<std::size_t>& subset) {
  if (subset.empty()) {
    // ER(empty) needs no network; the local twin answers identically.
    return engine().evaluate(subset);
  }
  const Clock::time_point start = Clock::now();
  try {
    const std::string subset_csv = join_csv(subset);
    const std::vector<service::Response> replies =
        fan_out([&](const Slice& slice) {
          service::Request r = base_request(service::RequestType::kShardEval);
          r.params["subset"] = subset_csv;
          r.params["begin"] = std::to_string(slice.begin);
          r.params["end"] = std::to_string(slice.end);
          return r;
        });
    // Paste integer shard ranks into scenario order, then reduce with the
    // engine's own fixed chunked summation tree — bitwise the single-node
    // result, independent of the sharding.
    std::vector<std::size_t> table(engine().scenario_count(), 0);
    for (std::size_t s = 0; s < slices_.size(); ++s) {
      if (slices_[s].empty()) continue;
      const std::vector<std::size_t> ranks =
          parse_csv(replies[s].at("ranks"));
      if (ranks.size() != slices_[s].size()) {
        throw std::runtime_error("cluster: shard rank count mismatch");
      }
      for (std::size_t i = 0; i < ranks.size(); ++i) {
        table[slices_[s].begin + i] = ranks[i];
      }
    }
    const double value = engine().reduce_ranks(table);
    metrics_.record(service::RequestType::kShardEval, true,
                    seconds_since(start));
    return value;
  } catch (...) {
    metrics_.record(service::RequestType::kShardEval, false,
                    seconds_since(start));
    throw;
  }
}

std::size_t Coordinator::failovers() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return failovers_;
}

std::size_t Coordinator::owner_of(std::size_t slice) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (owners_.empty()) {
    throw std::runtime_error("cluster: no alive workers left");
  }
  return owners_.at(slice);
}

std::vector<service::Response> Coordinator::fan_out(
    const std::function<service::Request(const Slice&)>& make_request) {
  std::vector<service::Response> replies(slices_.size());
  std::vector<std::exception_ptr> errors(slices_.size());
  std::vector<std::thread> threads;
  threads.reserve(slices_.size());
  for (std::size_t s = 0; s < slices_.size(); ++s) {
    if (slices_[s].empty()) continue;
    threads.emplace_back([this, s, &make_request, &replies, &errors] {
      try {
        replies[s] = robust_slice_call(s, make_request);
      } catch (...) {
        errors[s] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t s = 0; s < slices_.size(); ++s) {
    if (errors[s]) std::rethrow_exception(errors[s]);
  }
  return replies;
}

service::Response Coordinator::robust_slice_call(
    std::size_t slice_index,
    const std::function<service::Request(const Slice&)>& make_request) {
  const Slice& slice = slices_[slice_index];
  while (true) {
    const std::size_t owner = owner_of(slice_index);
    try {
      service::Response reply = client_.call(owner, make_request(slice));
      if (!reply.ok) {
        // An application error is deterministic — every survivor would
        // answer the same — so it propagates instead of failing over.
        throw std::runtime_error("cluster: worker " + std::to_string(owner) +
                                 " error: " + reply.error);
      }
      return reply;
    } catch (const TransportError&) {
      note_worker_down(owner);
      // Loop: owner_of picks the survivor now owning this slice, or
      // throws once nobody is left.
    }
  }
}

void Coordinator::note_worker_down(std::size_t worker) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (!client_.alive(worker)) return;  // Another thread got here first.
  client_.mark_dead(worker);
  std::vector<bool> alive(client_.size());
  bool any = false;
  for (std::size_t w = 0; w < client_.size(); ++w) {
    alive[w] = client_.alive(w);
    any = any || alive[w];
  }
  if (!any) {
    owners_.clear();  // owner_of now reports the cluster as lost.
    return;
  }
  const std::vector<std::size_t> next = assign_owners(slices_.size(), alive);
  for (std::size_t s = 0; s < slices_.size(); ++s) {
    if (!slices_[s].empty() && !owners_.empty() && next[s] != owners_[s]) {
      ++failovers_;
    }
  }
  owners_ = next;
}

service::Request Coordinator::base_request(service::RequestType type) const {
  service::Request r;
  r.type = type;
  if (!key_.topology.empty()) r.params["as"] = key_.topology;
  r.params["nodes"] = std::to_string(key_.nodes);
  r.params["links"] = std::to_string(key_.links);
  r.params["paths"] = std::to_string(key_.candidate_paths);
  r.params["seed"] = std::to_string(key_.seed);
  r.params["intensity"] = service::format_double(key_.intensity);
  if (key_.unit_costs) r.params["unit-costs"] = "1";
  if (type == service::RequestType::kShardEval) {
    r.params["runs"] = std::to_string(config_.runs);
  }
  return r;
}

void Coordinator::start_heartbeats() {
  if (config_.heartbeat_interval_s <= 0.0 || hb_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = false;
  }
  hb_thread_ = std::thread([this] { heartbeat_loop(); });
}

void Coordinator::stop_heartbeats() {
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  if (hb_thread_.joinable()) hb_thread_.join();
}

void Coordinator::heartbeat_loop() {
  std::vector<std::size_t> misses(client_.size(), 0);
  while (true) {
    {
      std::unique_lock<std::mutex> lock(hb_mu_);
      hb_cv_.wait_for(
          lock,
          std::chrono::duration<double>(config_.heartbeat_interval_s),
          [this] { return hb_stop_; });
      if (hb_stop_) return;
    }
    for (std::size_t w = 0; w < client_.size(); ++w) {
      if (!client_.alive(w)) continue;
      if (client_.heartbeat(w, config_.heartbeat_deadline_s)) {
        misses[w] = 0;
      } else if (++misses[w] >= config_.heartbeat_misses) {
        note_worker_down(w);
      }
    }
  }
}

}  // namespace rnt::cluster
