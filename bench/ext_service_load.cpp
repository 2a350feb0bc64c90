// Extension benchmark: open-loop load against the reactor front end,
// with a machine-readable BENCH_SERVICE.json report.
//
// One in-process ReactorServer, thousands of real loopback connections,
// and an *open-loop* generator: request arrival times are drawn from a
// seeded Poisson (or uniform) process and dispatched on schedule whether
// or not earlier requests have completed.  A closed-loop driver (send,
// wait, send) hides overload by slowing itself down to the server's pace;
// open-loop is the only shape that measures queueing honestly and avoids
// coordinated omission — latency is measured from the *scheduled* arrival
// instant, not from whenever the client got around to writing.
//
// Three phases:
//   1. connect  — open `--connections` sockets in bounded waves.
//   2. steady   — offered rate `--rate` for `--seconds`, round-robin over
//                 every connection; p50/p95/p99 and throughput reported.
//   3. overload — a pipelined burst far past the server's admission bound
//                 (`--burst` requests on each of `--burst-conns`
//                 connections, one send per request); the server must
//                 answer every single one — `ok` or structured
//                 `error overloaded:` — with nothing dropped or hung.
//
// Gated ratios (machine-independent contract checks; absolute throughput
// and quantiles are informational):
//   connect_success_over_attempted   every connection established
//   steady_answered_over_offered     every steady request answered
//   overload_answered_over_offered   every overload request answered
//   overload_shed_fraction           the admission queue actually shed
//   delack_over_overload_burst_p50   40 ms (Linux's minimum delayed-ACK
//                                    interval) / overload-burst p50: a
//                                    server that leaves Nagle on holds
//                                    pipelined replies behind the peer's
//                                    delayed ACK and reads about 1
#include <poll.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "net/poller.h"
#include "service/reactor_server.h"
#include "util/rng.h"

namespace rnt {
namespace {

/// Linux's minimum delayed-ACK interval (TCP_DELACK_MIN), the stall a
/// reply held back by Nagle waits out.
constexpr double kMinDelayedAckUs = 40000.0;

double now_s() {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One generator-side connection: a non-blocking socket plus the FIFO of
/// scheduled-send instants for its outstanding requests (replies come
/// back in request order, so front() always matches the next reply).
struct Conn {
  int fd = -1;
  std::string in;
  std::string out;
  std::size_t out_off = 0;
  bool want_write = false;
  std::deque<double> sent_s;
};

/// Per-phase accounting.
struct PhaseCounters {
  std::size_t offered = 0;
  std::size_t ok = 0;
  std::size_t shed = 0;    ///< `error overloaded: ...` replies.
  std::size_t other = 0;   ///< Any other error reply (should stay 0).
  std::vector<double> latency_us;
  /// How late each request left the generator after its scheduled
  /// instant (open-loop phase only; informational).
  std::vector<double> send_lag_us;

  std::size_t answered() const { return ok + shed + other; }
};

class LoadGenerator {
 public:
  LoadGenerator(std::uint16_t port, std::size_t connections)
      : port_(port), poller_(net::make_poller()) {
    conns_.resize(connections);
  }

  ~LoadGenerator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }

  /// Opens every connection in bounded waves (the listener's backlog is
  /// finite; a single SYN flood of thousands forces retransmit stalls).
  /// Returns the number established.
  std::size_t connect_all(std::size_t wave_size, double deadline_s) {
    std::size_t established = 0;
    for (std::size_t base = 0; base < conns_.size(); base += wave_size) {
      const std::size_t end = std::min(base + wave_size, conns_.size());
      std::vector<pollfd> wave;
      for (std::size_t i = base; i < end; ++i) {
        const int fd = open_nonblocking_connect();
        if (fd < 0) continue;
        conns_[i].fd = fd;
        wave.push_back(pollfd{fd, POLLOUT, 0});
      }
      const double give_up = now_s() + deadline_s;
      std::size_t done = 0;
      while (done < wave.size() && now_s() < give_up) {
        const int ready = ::poll(wave.data(), static_cast<nfds_t>(wave.size()),
                                 100);
        if (ready <= 0) continue;
        done = 0;
        for (const pollfd& p : wave) {
          if ((p.revents & (POLLOUT | POLLERR | POLLHUP)) != 0) ++done;
        }
      }
      for (std::size_t i = base; i < end; ++i) {
        if (conns_[i].fd < 0) continue;
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(conns_[i].fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          ::close(conns_[i].fd);
          conns_[i].fd = -1;
          continue;
        }
        poller_->add(conns_[i].fd, /*want_read=*/true, /*want_write=*/false);
        fd_to_index_[conns_[i].fd] = i;
        ++established;
      }
    }
    return established;
  }

  /// Open-loop phase: offers `total` requests at `rate`/s (exponential or
  /// uniform inter-arrival) round-robin over the connections, then drains
  /// until every reply landed or `drain_s` elapsed.
  void run_open_loop(PhaseCounters& counters, std::size_t total, double rate,
                     bool poisson, Rng& rng, double drain_s) {
    const double start = now_s();
    double next_arrival = start;
    std::size_t dispatched = 0;
    std::size_t rr = 0;
    while (dispatched < total) {
      const double now = now_s();
      while (dispatched < total && next_arrival <= now) {
        // Latency clock starts at the scheduled instant: if this loop
        // fell behind, the wait counts against the server's tail, not in
        // its favour (no coordinated omission).
        counters.send_lag_us.push_back((now - next_arrival) * 1e6);
        enqueue_request(conns_[next_live(rr)], next_arrival, counters);
        ++dispatched;
        next_arrival += poisson ? -std::log(1.0 - rng.uniform()) / rate
                                : 1.0 / rate;
      }
      pump(counters, /*timeout_ms=*/timeout_until(next_arrival));
    }
    drain(counters, drain_s);
  }

  /// Overload phase: `burst` pipelined requests on each of the first
  /// `burst_conns` connections, one send per request as a pipelining
  /// client makes them, then a drain.  Every request must come back
  /// answered.  (Batching a connection's burst into one send would hide a
  /// server that leaves Nagle on; see delack_over_overload_burst_p50.)
  void run_burst(PhaseCounters& counters, std::size_t burst,
                 std::size_t burst_conns, double drain_s) {
    std::size_t used = 0;
    for (Conn& conn : conns_) {
      if (used >= burst_conns) break;
      if (conn.fd < 0) continue;
      const double now = now_s();
      for (std::size_t r = 0; r < burst; ++r) {
        enqueue_request(conn, now, counters);
      }
      ++used;
    }
    drain(counters, drain_s);
  }

  std::size_t outstanding() const { return outstanding_; }

 private:
  int open_nonblocking_connect() {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
        errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  std::size_t next_live(std::size_t& rr) {
    for (std::size_t step = 0; step < conns_.size(); ++step) {
      const std::size_t i = rr++ % conns_.size();
      if (conns_[i].fd >= 0) return i;
    }
    throw std::runtime_error("every generator connection died");
  }

  void enqueue_request(Conn& conn, double scheduled_s,
                       PhaseCounters& counters) {
    conn.out += "ping\n";
    conn.sent_s.push_back(scheduled_s);
    ++counters.offered;
    ++outstanding_;
    flush(conn);
  }

  /// Whole milliseconds the poller may block without sleeping past the
  /// next scheduled send; 0 (poll without blocking) once that send is due
  /// in under a millisecond.  Rounding up here would wake the generator
  /// late and charge the oversleep to the server's latency.
  static int timeout_until(double next_arrival) {
    const double ms = (next_arrival - now_s()) * 1000.0;
    if (ms <= 0.0) return 0;
    return static_cast<int>(std::min(ms, 10.0));
  }

  void pump(PhaseCounters& counters, int timeout_ms) {
    poller_->wait(events_, timeout_ms);
    for (const net::PollEvent& event : events_) {
      const auto it = fd_to_index_.find(event.fd);
      if (it == fd_to_index_.end()) continue;
      Conn& conn = conns_[it->second];
      if (event.writable) flush(conn);
      if (event.readable || event.error) read_replies(conn, counters);
    }
  }

  void drain(PhaseCounters& counters, double drain_s) {
    const double deadline = now_s() + drain_s;
    while (outstanding_ > 0 && now_s() < deadline) {
      pump(counters, 10);
    }
  }

  void flush(Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        drop_conn(conn);
        return;
      }
      conn.out_off += static_cast<std::size_t>(n);
    }
    if (conn.out_off >= conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
    const bool want_write = conn.out_off < conn.out.size();
    if (want_write != conn.want_write) {
      conn.want_write = want_write;
      poller_->modify(conn.fd, /*want_read=*/true, want_write);
    }
  }

  void read_replies(Conn& conn, PhaseCounters& counters) {
    char chunk[16384];
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR)) {
      drop_conn(conn);
      return;
    }
    if (n < 0) return;
    conn.in.append(chunk, static_cast<std::size_t>(n));
    std::size_t newline;
    while ((newline = conn.in.find('\n')) != std::string::npos) {
      const std::string line = conn.in.substr(0, newline);
      conn.in.erase(0, newline + 1);
      if (conn.sent_s.empty()) continue;  // Unsolicited line; ignore.
      counters.latency_us.push_back((now_s() - conn.sent_s.front()) * 1e6);
      conn.sent_s.pop_front();
      --outstanding_;
      if (line.rfind("ok", 0) == 0) {
        ++counters.ok;
      } else if (line.find("overloaded") != std::string::npos) {
        ++counters.shed;
      } else {
        ++counters.other;
      }
    }
  }

  void drop_conn(Conn& conn) {
    poller_->remove(conn.fd);
    fd_to_index_.erase(conn.fd);
    ::close(conn.fd);
    conn.fd = -1;
    // Outstanding requests on a dead connection will never be answered;
    // they stay counted against the answered/offered ratio, which is the
    // point — a dropped connection is a broken contract.
  }

  std::uint16_t port_;
  std::unique_ptr<net::Poller> poller_;
  std::vector<Conn> conns_;
  std::unordered_map<int, std::size_t> fd_to_index_;
  std::vector<net::PollEvent> events_;
  std::size_t outstanding_ = 0;
};

/// Quantiles of `values_us` (sorted in place) with the given throughput.
bench::LatencySample quantiles(std::vector<double>& values_us,
                               double ops_per_sec) {
  std::sort(values_us.begin(), values_us.end());
  bench::LatencySample sample;
  sample.iterations = values_us.size();
  sample.ops_per_sec = ops_per_sec;
  sample.p50_us = bench::sorted_quantile(values_us, 0.50);
  sample.p95_us = bench::sorted_quantile(values_us, 0.95);
  sample.p99_us = bench::sorted_quantile(values_us, 0.99);
  return sample;
}

bench::LatencySample to_sample(PhaseCounters& counters, double elapsed_s) {
  return quantiles(
      counters.latency_us,
      elapsed_s > 0.0 ? static_cast<double>(counters.answered()) / elapsed_s
                      : 0.0);
}

int run(Flags& flags) {
  const std::size_t connections =
      static_cast<std::size_t>(flags.get_int("connections", 5000));
  const double rate = flags.get_double("rate", 2000.0);
  const double seconds = flags.get_double("seconds", 2.0);
  const std::string arrivals = flags.get_string("arrivals", "poisson");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::size_t threads =
      static_cast<std::size_t>(flags.get_int("threads", 2));
  const std::size_t max_queue =
      static_cast<std::size_t>(flags.get_int("max-queue", 64));
  const std::size_t burst =
      static_cast<std::size_t>(flags.get_int("burst", 256));
  const std::size_t burst_conns =
      static_cast<std::size_t>(flags.get_int("burst-conns", 8));
  const double drain_s = flags.get_double("drain-seconds", 10.0);
  const std::string json_path = flags.get_string("json", "");
  const bool csv = flags.get_bool("csv", false);
  if (arrivals != "poisson" && arrivals != "uniform") {
    std::cerr << "error: --arrivals must be poisson or uniform\n";
    return 1;
  }

  service::ReactorServer server(service::ReactorServerConfig{
      .port = 0,
      .threads = threads,
      .cache_capacity = 2,
      .request_timeout_s = 30.0,
      .backlog = 1024,
      .max_queue = max_queue});
  std::thread runner([&server] { server.run(); });

  Rng rng(seed);
  LoadGenerator gen(server.port(), connections);

  const double connect_begin = now_s();
  const std::size_t established = gen.connect_all(/*wave_size=*/256,
                                                  /*deadline_s=*/10.0);
  const double connect_elapsed = now_s() - connect_begin;

  PhaseCounters steady;
  const std::size_t total =
      static_cast<std::size_t>(rate * seconds);
  const double steady_begin = now_s();
  gen.run_open_loop(steady, total, rate, arrivals == "poisson", rng, drain_s);
  const double steady_elapsed = now_s() - steady_begin;

  PhaseCounters overload;
  const double overload_begin = now_s();
  gen.run_burst(overload, burst, burst_conns, drain_s);
  const double overload_elapsed = now_s() - overload_begin;

  server.stop();
  runner.join();

  const auto ratio = [](std::size_t num, std::size_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
  };

  bench::BenchReport report("ext_service_load");
  report.set_config("connections", static_cast<double>(connections));
  report.set_config("rate_per_sec", rate);
  report.set_config("seconds", seconds);
  report.set_config("arrivals", arrivals);
  report.set_config("seed", static_cast<double>(seed));
  report.set_config("server_threads", static_cast<double>(threads));
  report.set_config("max_queue", static_cast<double>(max_queue));
  report.set_config("burst", static_cast<double>(burst));
  report.set_config("burst_conns", static_cast<double>(burst_conns));
  report.set_config("transport", "loopback TCP, in-process reactor server");

  const bench::LatencySample steady_sample = to_sample(steady, steady_elapsed);
  const bench::LatencySample overload_sample =
      to_sample(overload, overload_elapsed);
  const bench::LatencySample send_lag_sample =
      quantiles(steady.send_lag_us, 0.0);
  bench::LatencySample connect_sample;
  connect_sample.iterations = established;
  connect_sample.ops_per_sec =
      connect_elapsed > 0.0
          ? static_cast<double>(established) / connect_elapsed
          : 0.0;
  report.add_metric("connect", connect_sample);
  report.add_metric("steady", steady_sample);
  report.add_metric("overload_burst", overload_sample);
  report.add_metric("steady_send_lag", send_lag_sample);

  report.add_ratio("connect_success_over_attempted",
                   ratio(established, connections));
  report.add_ratio("steady_answered_over_offered",
                   ratio(steady.answered(), steady.offered));
  report.add_ratio("overload_answered_over_offered",
                   ratio(overload.answered(), overload.offered));
  report.add_ratio("overload_shed_fraction",
                   ratio(overload.shed, overload.offered));
  report.add_ratio("delack_over_overload_burst_p50",
                   overload_sample.p50_us > 0.0
                       ? kMinDelayedAckUs / overload_sample.p50_us
                       : 0.0);

  TablePrinter table({"phase", "offered", "answered", "ok", "shed",
                      "ops/sec", "p50 us", "p95 us", "p99 us"});
  table.add_row({"connect", std::to_string(connections),
                 std::to_string(established), "-", "-",
                 fmt(connect_sample.ops_per_sec, 1), "-", "-", "-"});
  table.add_row({"steady", std::to_string(steady.offered),
                 std::to_string(steady.answered()),
                 std::to_string(steady.ok), std::to_string(steady.shed),
                 fmt(steady_sample.ops_per_sec, 1),
                 fmt(steady_sample.p50_us, 1), fmt(steady_sample.p95_us, 1),
                 fmt(steady_sample.p99_us, 1)});
  table.add_row({"overload", std::to_string(overload.offered),
                 std::to_string(overload.answered()),
                 std::to_string(overload.ok), std::to_string(overload.shed),
                 fmt(overload_sample.ops_per_sec, 1),
                 fmt(overload_sample.p50_us, 1),
                 fmt(overload_sample.p95_us, 1),
                 fmt(overload_sample.p99_us, 1)});
  table.add_row({"send lag", std::to_string(send_lag_sample.iterations),
                 "-", "-", "-", "-", fmt(send_lag_sample.p50_us, 1),
                 fmt(send_lag_sample.p95_us, 1),
                 fmt(send_lag_sample.p99_us, 1)});
  table.print(std::cout, csv);

  if (!csv) {
    std::cout << "\nopen-loop contract: " << established << "/" << connections
              << " connections, steady answered "
              << fmt(100.0 * ratio(steady.answered(), steady.offered), 2)
              << "%, overload answered "
              << fmt(100.0 * ratio(overload.answered(), overload.offered), 2)
              << "% (shed "
              << fmt(100.0 * ratio(overload.shed, overload.offered), 2)
              << "% with a structured `overloaded` reply)\n";
  }
  if (!json_path.empty()) {
    report.write(json_path);
    if (!csv) std::cout << "wrote " << json_path << "\n";
  }

  // The contract itself, enforced here too so a bare run (no
  // bench_compare) still fails loudly on a dropped or hung request.
  if (established != connections || steady.answered() != steady.offered ||
      overload.answered() != overload.offered || overload.shed == 0 ||
      steady.other + overload.other != 0) {
    std::cerr << "FAIL: open-loop contract violated (dropped connections, "
                 "unanswered requests, or no shedding under overload)\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace rnt

int main(int argc, char** argv) {
  return rnt::bench::run_driver(
      argc, argv, [](rnt::Flags& flags) { return rnt::run(flags); });
}
