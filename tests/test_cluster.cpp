// The sharded cluster layer: shard planner, coordinator merge
// determinism, and failover.
//
// The acceptance property throughout: whatever the worker count, the
// slice weights, or which worker dies mid-run, the cluster's ER values
// must be *bitwise* identical to the single-node KernelErEngine — workers
// only ever ship integer ranks, and the coordinator replays the engine's
// exact float summation order.  EXPECT_EQ on doubles here is deliberate.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_commands.h"
#include "cluster/cluster_client.h"
#include "cluster/coordinator.h"
#include "cluster/shard_planner.h"
#include "core/rome.h"
#include "fleet.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/workload_cache.h"
#include "util/flags.h"

namespace rnt::cluster {
namespace {

using testutil::Fleet;

// --------------------------------------------------------------------------
// Shard planner
// --------------------------------------------------------------------------

TEST(ShardPlanner, SlicesAreContiguousProportionalAndDeterministic) {
  const std::vector<double> weights{1.0, 1.0, 2.0};
  const std::vector<Slice> slices = plan_slices(100, weights);
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[0].begin, 0u);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    if (i > 0) {
      EXPECT_EQ(slices[i].begin, slices[i - 1].end);
    }
    covered += slices[i].size();
  }
  EXPECT_EQ(covered, 100u);
  EXPECT_EQ(slices[0].size(), 25u);
  EXPECT_EQ(slices[1].size(), 25u);
  EXPECT_EQ(slices[2].size(), 50u);
  EXPECT_EQ(plan_slices(100, weights), slices);  // Pure function.
}

TEST(ShardPlanner, LargestRemainderIsWithinOneOfProportional) {
  const std::vector<double> weights{1.0, 1.0, 1.0};
  const std::vector<Slice> slices = plan_slices(50, weights);
  std::size_t covered = 0;
  for (const Slice& s : slices) {
    // 50/3: every worker gets 16 or 17.
    EXPECT_GE(s.size(), 16u);
    EXPECT_LE(s.size(), 17u);
    covered += s.size();
  }
  EXPECT_EQ(covered, 50u);
}

TEST(ShardPlanner, MoreWorkersThanScenariosLeavesEmptySlices) {
  const std::vector<Slice> slices = plan_slices(2, {1.0, 1.0, 1.0, 1.0});
  std::size_t covered = 0, empty = 0;
  for (const Slice& s : slices) {
    covered += s.size();
    empty += s.empty() ? 1 : 0;
  }
  EXPECT_EQ(covered, 2u);
  EXPECT_EQ(empty, 2u);
}

TEST(ShardPlanner, RejectsBadWeights) {
  EXPECT_THROW(plan_slices(10, {}), std::invalid_argument);
  EXPECT_THROW(plan_slices(10, {1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(plan_slices(10, {1.0, -2.0}), std::invalid_argument);
}

TEST(ShardPlanner, AssignOwnersKeepsAliveAndFailsOverRoundRobin) {
  EXPECT_EQ(assign_owners(3, {true, true, true}),
            (std::vector<std::size_t>{0, 1, 2}));
  // Worker 1 dead: its slice goes to a survivor; the others stay home.
  const std::vector<std::size_t> one_dead =
      assign_owners(3, {true, false, true});
  EXPECT_EQ(one_dead[0], 0u);
  EXPECT_EQ(one_dead[2], 2u);
  EXPECT_EQ(one_dead[1], 0u);  // First survivor in round-robin order.
  // Two dead, one survivor: everything lands on it.
  EXPECT_EQ(assign_owners(3, {false, true, false}),
            (std::vector<std::size_t>{1, 1, 1}));
  // Dead slices spread round-robin over multiple survivors.
  const std::vector<std::size_t> spread =
      assign_owners(4, {true, false, false, true});
  EXPECT_EQ(spread[1], 0u);
  EXPECT_EQ(spread[2], 3u);
  EXPECT_THROW(assign_owners(2, {false, false}), std::invalid_argument);
  EXPECT_THROW(assign_owners(2, {true}), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Shared workload and coordinator settings
// --------------------------------------------------------------------------

constexpr std::size_t kRuns = 25;

service::WorkloadKey test_key() {
  service::WorkloadKey key;
  key.nodes = 30;
  key.links = 60;
  key.candidate_paths = 40;
  key.seed = 3;
  key.intensity = 5.0;
  return key;
}

std::string key_params() {
  return "nodes=30 links=60 paths=40 seed=3 intensity=5 runs=" +
         std::to_string(kRuns);
}

CoordinatorConfig fast_config() {
  CoordinatorConfig config;
  config.runs = kRuns;
  config.rpc.connect_timeout_s = 2.0;
  config.rpc.reply_timeout_s = 30.0;
  config.rpc.retries = 1;
  config.rpc.backoff_s = 0.01;
  return config;
}

double budget_for(const exp::Workload& w, double frac) {
  return frac * service::total_cost(w);
}

// --------------------------------------------------------------------------
// Merge determinism
// --------------------------------------------------------------------------

TEST(Cluster, EvaluateBitwiseMatchesSingleNodeAcrossWorkerCounts) {
  for (const std::size_t worker_count : {1u, 2u, 4u}) {
    Fleet fleet(worker_count);
    Coordinator coord(test_key(), fleet.endpoints(), fast_config());
    for (const service::Response& r : coord.hello()) {
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.at("worker"), "1");
    }
    const core::KernelErEngine& engine = coord.engine();
    ASSERT_EQ(engine.scenario_count(), kRuns);

    const std::size_t paths = coord.workload().workload.system->path_count();
    std::vector<std::size_t> all(paths);
    std::iota(all.begin(), all.end(), std::size_t{0});
    const std::vector<std::vector<std::size_t>> subsets{
        {0}, {5, 10, 15}, {paths - 1, 0, paths / 2}, all};
    for (const auto& subset : subsets) {
      EXPECT_EQ(coord.evaluate(subset), engine.evaluate(subset))
          << worker_count << " workers";
    }
    EXPECT_EQ(coord.failovers(), 0u);
    EXPECT_EQ(coord.alive_workers(), worker_count);
  }
}

TEST(Cluster, UnevenWeightsStillMergeBitwise) {
  Fleet fleet(2);
  Coordinator coord(test_key(), fleet.endpoints({1.0, 3.0}), fast_config());
  ASSERT_EQ(coord.slices()[0].size() + coord.slices()[1].size(), kRuns);
  EXPECT_LT(coord.slices()[0].size(), coord.slices()[1].size());
  const core::KernelErEngine& engine = coord.engine();
  EXPECT_EQ(coord.evaluate({0, 1, 2, 3}), engine.evaluate({0, 1, 2, 3}));
}

TEST(Cluster, SelectBitwiseMatchesSingleNode) {
  // rnt_cli cluster end to end: RoMe runs on the coordinator's own
  // engine — the same bits as a single-node run on an independently
  // built twin — and --verify demands the shard-eval ER bitwise too.
  Fleet fleet(2);
  const std::vector<WorkerEndpoint> eps = fleet.endpoints();
  const std::string workers =
      std::to_string(eps[0].port) + "," + std::to_string(eps[1].port);
  const std::string runs = std::to_string(kRuns);
  std::vector<const char*> args{"cluster", "--workers", workers.c_str(),
                                "--nodes", "30", "--links", "60",
                                "--paths", "40", "--seed", "3",
                                "--runs", runs.c_str(),
                                "--budget-fracs", "0.15,0.3"};
  Flags flags(static_cast<int>(args.size()), args.data());
  std::ostringstream out;
  ASSERT_EQ(cli::cmd_cluster(flags, out), 0) << out.str();
  EXPECT_NE(out.str().find("verified: cluster ER bitwise identical"),
            std::string::npos)
      << out.str();

  Coordinator coord(test_key(), fleet.endpoints(), fast_config());
  service::WorkloadCache cache(1);
  const auto twin = cache.get(test_key());
  const exp::Workload& w = coord.workload().workload;
  for (const double frac : {0.15, 0.3}) {
    const double budget = budget_for(w, frac);
    const core::Selection sel =
        core::rome(*w.system, w.costs, budget, coord.engine());
    const core::Selection local =
        core::rome(*twin->workload.system, twin->workload.costs, budget,
                   twin->kernel_engine(kRuns));
    ASSERT_FALSE(sel.paths.empty());
    EXPECT_EQ(sel.paths, local.paths);
    EXPECT_EQ(sel.objective, local.objective);  // Bitwise.
    EXPECT_EQ(coord.evaluate(sel.paths),
              twin->kernel_engine(kRuns).evaluate(local.paths));
  }
  EXPECT_EQ(coord.failovers(), 0u);
}

// --------------------------------------------------------------------------
// Failover
// --------------------------------------------------------------------------

TEST(Cluster, EvaluateFailsOverAfterWorkerDeath) {
  Fleet fleet(3);
  Coordinator coord(test_key(), fleet.endpoints(), fast_config());
  const core::KernelErEngine& engine = coord.engine();
  EXPECT_EQ(coord.evaluate({0, 1, 2}), engine.evaluate({0, 1, 2}));
  fleet.kill(1);
  EXPECT_EQ(coord.evaluate({0, 1, 2}), engine.evaluate({0, 1, 2}));
  EXPECT_EQ(coord.evaluate({3, 4}), engine.evaluate({3, 4}));
  EXPECT_GE(coord.failovers(), 1u);
  EXPECT_EQ(coord.alive_workers(), 2u);
  // Slice 1 now belongs to a survivor; slices 0 and 2 stayed home.
  EXPECT_NE(coord.owner_of(1), 1u);
  EXPECT_EQ(coord.owner_of(0), 0u);
  EXPECT_EQ(coord.owner_of(2), 2u);
}

TEST(Cluster, AllWorkersDeadThrows) {
  Fleet fleet(2);
  Coordinator coord(test_key(), fleet.endpoints(), fast_config());
  EXPECT_EQ(coord.evaluate({0}), coord.engine().evaluate({0}));
  fleet.kill(0);
  fleet.kill(1);
  EXPECT_THROW((void)coord.evaluate({0, 1}), std::runtime_error);
  EXPECT_EQ(coord.alive_workers(), 0u);
}

TEST(Cluster, HelloReportsUnreachableWorkersAndFailsThemOver) {
  Fleet fleet(2);
  std::vector<WorkerEndpoint> eps = fleet.endpoints();
  fleet.kill(1);
  CoordinatorConfig config = fast_config();
  config.rpc.retries = 0;
  Coordinator coord(test_key(), std::move(eps), config);
  const std::vector<service::Response> hellos = coord.hello();
  ASSERT_EQ(hellos.size(), 2u);
  EXPECT_TRUE(hellos[0].ok) << hellos[0].error;
  EXPECT_FALSE(hellos[1].ok);
  EXPECT_EQ(coord.alive_workers(), 1u);
  // The dead worker's slice already failed over at hello time.
  EXPECT_EQ(coord.owner_of(1), 0u);
  EXPECT_EQ(coord.evaluate({0, 1}), coord.engine().evaluate({0, 1}));
}

TEST(Cluster, HeartbeatMonitorPrunesDeadWorker) {
  Fleet fleet(2);
  CoordinatorConfig config = fast_config();
  config.heartbeat_interval_s = 0.03;
  config.heartbeat_deadline_s = 0.5;
  config.heartbeat_misses = 2;
  Coordinator coord(test_key(), fleet.endpoints(), config);
  ASSERT_TRUE(coord.hello()[1].ok);
  coord.start_heartbeats();
  fleet.kill(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (coord.alive_workers() == 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  coord.stop_heartbeats();
  EXPECT_EQ(coord.alive_workers(), 1u);
  EXPECT_GE(coord.failovers(), 1u);
  // Detection happened in the background; the next request needs no
  // inline transport failure to route around the corpse.
  EXPECT_EQ(coord.evaluate({0, 1, 2}), coord.engine().evaluate({0, 1, 2}));
}

// --------------------------------------------------------------------------
// Shard verbs on the wire
// --------------------------------------------------------------------------

TEST(ClusterVerbs, ShardEvalEqualsEngineSliceRanks) {
  Fleet fleet(1);
  service::WorkloadCache cache(1);
  const auto cw = cache.get(test_key());
  const core::KernelErEngine& engine = cw->kernel_engine(kRuns);

  service::TcpClient client("127.0.0.1", fleet.endpoints()[0].port, 30.0);
  const service::Response r = service::parse_response(client.call_line(
      "shard-eval " + key_params() + " subset=0,1,2,7 begin=5 end=20"));
  ASSERT_TRUE(r.ok) << r.error;
  const std::vector<std::size_t> ranks =
      engine.slice_ranks({0, 1, 2, 7}, 5, 20);
  std::string expected;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (i > 0) expected += ',';
    expected += std::to_string(ranks[i]);
  }
  EXPECT_EQ(r.at("ranks"), expected);
  EXPECT_EQ(r.at("begin"), "5");
  EXPECT_EQ(r.at("end"), "20");

  // Bad ranges are application errors, not hangs.
  EXPECT_FALSE(service::parse_response(client.call_line(
                   "shard-eval " + key_params() + " subset=0 begin=9 end=4"))
                   .ok);
  EXPECT_FALSE(
      service::parse_response(
          client.call_line("shard-eval " + key_params() +
                           " subset=0 begin=0 end=9999"))
          .ok);
}

// --------------------------------------------------------------------------
// Client deadlines and bounded retry
// --------------------------------------------------------------------------

/// A listener that accepts connections and never replies — the blackholed
/// server a read deadline exists for.
class SilentListener {
 public:
  SilentListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd_, 4) != 0) {
      throw std::runtime_error("SilentListener: bind/listen failed");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] {
      while (true) {
        const int conn = ::accept(fd_, nullptr, nullptr);
        if (conn < 0) return;  // Listener closed.
        accepted_.push_back(conn);
      }
    });
  }

  ~SilentListener() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    acceptor_.join();
    for (const int conn : accepted_) ::close(conn);
  }

  std::uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  std::vector<int> accepted_;
};

TEST(TcpClientDeadlines, ReplyTimeoutTriggersBoundedRetry) {
  SilentListener listener;
  service::ClientOptions options;
  options.connect_timeout_s = 2.0;
  options.reply_timeout_s = 0.2;
  options.retries = 1;
  options.backoff_s = 0.01;
  service::TcpClient client("127.0.0.1", listener.port(), options);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.call_line("ping"), std::runtime_error);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Two bounded attempts, not a hang: well under the no-deadline default.
  EXPECT_LT(elapsed, 5.0);
  EXPECT_GE(elapsed, 0.2);             // At least one full reply deadline.
  EXPECT_EQ(client.reconnects(), 1u);  // Exactly the configured retry.
}

TEST(TcpClientDeadlines, ConnectRefusedExhaustsRetriesQuickly) {
  // Grab a loopback port that is then closed again: connecting must be
  // refused, retried `retries` times, and thrown — never parked in the
  // kernel's minutes-long connect timeout.
  std::uint16_t dead_port = 0;
  {
    SilentListener probe;
    dead_port = probe.port();
  }
  service::ClientOptions options;
  options.connect_timeout_s = 0.5;
  options.reply_timeout_s = 0.5;
  options.retries = 2;
  options.backoff_s = 0.01;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(service::TcpClient("127.0.0.1", dead_port, options),
               std::runtime_error);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 5.0);
}

TEST(ClusterClient, CallAfterMarkDeadThrowsTransportError) {
  Fleet fleet(1);
  ClusterClient client(fleet.endpoints(), service::ClientOptions{});
  service::Request ping;
  ping.type = service::RequestType::kPing;
  EXPECT_TRUE(client.call(0, ping).ok);
  EXPECT_TRUE(client.heartbeat(0, 2.0));
  client.mark_dead(0);
  EXPECT_FALSE(client.alive(0));
  EXPECT_EQ(client.alive_count(), 0u);
  EXPECT_THROW((void)client.call(0, ping), TransportError);
  EXPECT_FALSE(client.heartbeat(0, 0.5));
}

}  // namespace
}  // namespace rnt::cluster
