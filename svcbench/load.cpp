// `svcbench load`: the single-threaded request generator.
//
// Replays stream.tsv against a running server over at most a handful of
// loopback connections and times every reply at the client.
//
//  * Open loop (rows carry due_us): each request is written at its
//    scheduled instant whether or not earlier ones were answered, and its
//    latency is measured from that instant, so a server stall also
//    charges the requests queued behind it.  The send lag (actual write -
//    schedule) is recorded per request; a generator that falls behind its
//    schedule invalidates the run.
//  * Closed loop (due_us = -1): each connection sends its next row as soon
//    as the previous reply arrives; latency is measured from the write.
//
// Requests due (open) or sent (closed) before --warmup seconds are
// answered and recorded but fall outside the timed window.  After the
// window the generator stops sending, waits for every outstanding reply,
// samples the server's CPU time, and sends one final `stats` request.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_io.h"
#include "util/flags.h"
#include "util/json.h"

namespace svcbench {
namespace {

struct Pending {
  std::size_t idx;        ///< Stream row, or kFinalStats.
  std::int64_t start_ns;  ///< Latency origin: schedule (open) or write.
};

constexpr std::size_t kFinalStats = static_cast<std::size_t>(-1);

struct Conn {
  int fd = -1;
  std::string in;
  std::string out;
  std::deque<Pending> pending;  ///< Replies arrive in request order.
  std::vector<std::size_t> rows;  ///< Closed loop: this connection's rows.
  std::size_t next_row = 0;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect: " + err);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// utime + stime of a process, in seconds, from /proc/<pid>/stat.
double process_cpu_s(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  const std::size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) {
    throw std::runtime_error("cannot read CPU time of pid " + std::to_string(pid));
  }
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after the command: state is field 3; utime/stime are 14/15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

class Generator {
 public:
  Generator(std::vector<StreamRow> rows, std::size_t conns, std::uint16_t port)
      : rows_(std::move(rows)), conns_(conns) {
    for (Conn& c : conns_) {
      const std::int64_t t0 = now_ns();
      c.fd = connect_loopback(port);
      connect_ms_.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (rows_[i].conn >= conns_.size()) {
        throw std::runtime_error("stream row names connection " +
                                 std::to_string(rows_[i].conn));
      }
      conns_[rows_[i].conn].rows.push_back(i);
    }
    open_loop_ = !rows_.empty() && rows_.front().due_us >= 0;
    results_.resize(rows_.size());
  }

  ~Generator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Runs the warm-up plus timed window, then drains.  Returns false when
  /// a closed-loop connection ran out of stream rows.
  bool run(double warmup_s, double seconds, double drain_s, long server_pid) {
    start_ns_ = now_ns();
    const std::int64_t window_start = start_ns_ + static_cast<std::int64_t>(warmup_s * 1e9);
    const std::int64_t window_end = window_start + static_cast<std::int64_t>(seconds * 1e9);
    window_end_ns_ = window_end;
    bool window_open = false;
    std::size_t next = 0;  // Open loop: next row by schedule.

    if (!open_loop_) {
      for (Conn& c : conns_) send_next_closed(c);
    }
    while (true) {
      const std::int64_t now = now_ns();
      if (!window_open && now >= window_start) {
        window_open = true;
        cpu_start_s_ = process_cpu_s(server_pid);
        replies_at_cpu_start_ = replies_;
      }
      const bool sending = now < window_end && !exhausted_;
      if (open_loop_) {
        while (next < rows_.size() &&
               start_ns_ + rows_[next].due_us * 1000 <= now) {
          if (start_ns_ + rows_[next].due_us * 1000 >= window_end) {
            next = rows_.size();
            break;
          }
          send_row(next, start_ns_ + rows_[next].due_us * 1000);
          ++next;
        }
      }
      std::size_t outstanding = 0;
      for (const Conn& c : conns_) outstanding += c.pending.size();
      const bool more_to_send = sending && (!open_loop_ || next < rows_.size());
      if (!more_to_send && outstanding == 0 && now >= window_end) break;
      if (now >= window_end + static_cast<std::int64_t>(drain_s * 1e9)) break;

      std::int64_t timeout_ns = 50'000'000;
      if (open_loop_ && more_to_send) {
        timeout_ns = std::max<std::int64_t>(
            0, start_ns_ + rows_[next].due_us * 1000 - now);
      } else if (!window_open) {
        timeout_ns = std::max<std::int64_t>(0, window_start - now);
      }
      poll_once(timeout_ns);
    }
    cpu_end_s_ = process_cpu_s(server_pid);
    replies_at_cpu_end_ = replies_;
    return !exhausted_;
  }

  /// Sends `stats` on the first connection and waits for its reply.
  void final_stats(double deadline_s) {
    Conn& c = conns_.front();
    if (!c.pending.empty()) return;  // The drain timed out.
    queue_line(c, "stats", kFinalStats, now_ns());
    const std::int64_t give_up = now_ns() + static_cast<std::int64_t>(deadline_s * 1e9);
    while (!c.pending.empty() && now_ns() < give_up) poll_once(50'000'000);
  }

  void write(const std::string& dir) const {
    std::ofstream out(dir + "/results.tsv");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Result& r = results_[i];
      if (!r.sent) continue;
      out << i << '\t' << (r.sent_ns - start_ns_) / 1000 << '\t'
          << r.latency_us << '\t' << r.lag_us << '\t' << r.reply << '\n';
    }
    rnt::util::Json summary = rnt::util::Json::object();
    summary.set("server_cpu_s", rnt::util::Json::number(cpu_end_s_ - cpu_start_s_));
    summary.set("cpu_window_replies",
                rnt::util::Json::number(static_cast<double>(replies_at_cpu_end_ -
                                                            replies_at_cpu_start_)));
    rnt::util::Json connect = rnt::util::Json::array();
    for (const double ms : connect_ms_) connect.push_back(rnt::util::Json::number(ms));
    summary.set("connect_ms", std::move(connect));
    summary.set("final_stats", rnt::util::Json::string(final_stats_));
    rnt::util::write_file(dir + "/load.json", summary.dump());
  }

 private:
  struct Result {
    bool sent = false;
    std::int64_t sent_ns = 0;
    std::int64_t latency_us = -1;
    std::int64_t lag_us = 0;
    std::string reply;
  };

  void send_row(std::size_t idx, std::int64_t scheduled_ns) {
    const std::int64_t now = now_ns();
    Result& r = results_[idx];
    r.sent = true;
    r.sent_ns = now;
    r.lag_us = open_loop_ ? (now - scheduled_ns) / 1000 : 0;
    queue_line(conns_[rows_[idx].conn], rows_[idx].line, idx,
               open_loop_ ? scheduled_ns : now);
  }

  void send_next_closed(Conn& c) {
    if (c.next_row >= c.rows.size()) {
      exhausted_ = true;
      return;
    }
    send_row(c.rows[c.next_row++], 0);
  }

  void queue_line(Conn& c, const std::string& line, std::size_t idx,
                  std::int64_t start_ns) {
    c.out += line;
    c.out += '\n';
    c.pending.push_back({idx, start_ns});
    flush(c);
  }

  void flush(Conn& c) {
    while (!c.out.empty()) {
      const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(),
                             MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.out.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        throw std::runtime_error("send: " + std::string(strerror(errno)));
      }
    }
  }

  void poll_once(std::int64_t timeout_ns) {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) {
      fds.push_back(pollfd{c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0});
    }
    timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                static_cast<long>(timeout_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll: " + std::string(strerror(errno)));
    }
    if (ready <= 0) return;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Conn& c = conns_[i];
      if (fds[i].revents & POLLOUT) flush(c);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        read_replies(c);
      }
    }
  }

  void read_replies(Conn& c) {
    char buf[65536];
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n == 0) throw std::runtime_error("server closed a connection");
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      throw std::runtime_error("recv: " + std::string(strerror(errno)));
    }
    const std::int64_t now = now_ns();
    c.in.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos; start = nl + 1) {
      if (c.pending.empty()) throw std::runtime_error("reply without a request");
      const Pending p = c.pending.front();
      c.pending.pop_front();
      std::string reply = c.in.substr(start, nl - start);
      if (!reply.empty() && reply.back() == '\r') reply.pop_back();
      ++replies_;
      if (p.idx == kFinalStats) {
        final_stats_ = std::move(reply);
        continue;
      }
      Result& r = results_[p.idx];
      r.latency_us = (now - p.start_ns) / 1000;
      r.reply = std::move(reply);
      if (!open_loop_ && !exhausted_ && now < window_end_ns_) send_next_closed(c);
    }
    c.in.erase(0, start);
  }

  std::vector<StreamRow> rows_;
  std::vector<Conn> conns_;
  std::vector<Result> results_;
  std::vector<double> connect_ms_;
  bool open_loop_ = false;
  std::int64_t start_ns_ = 0;
  std::int64_t window_end_ns_ = 0;
  bool exhausted_ = false;  ///< A closed-loop connection ran out of rows.
  double cpu_start_s_ = 0.0;
  double cpu_end_s_ = 0.0;
  std::size_t replies_ = 0;
  std::size_t replies_at_cpu_start_ = 0;
  std::size_t replies_at_cpu_end_ = 0;
  std::string final_stats_;
};

}  // namespace

int run_load(int argc, const char* const* argv) {
  rnt::Flags flags(argc, argv);
  const std::string dir = flags.get_string("dir", "");
  const auto port = static_cast<std::uint16_t>(flags.get_int("port", 0));
  const auto conns = static_cast<std::size_t>(flags.get_int("conns", 1));
  const double warmup_s = flags.get_double("warmup", 1.0);
  const double seconds = flags.get_double("seconds", 10.0);
  const double drain_s = flags.get_double("drain", 30.0);
  const long server_pid = static_cast<long>(flags.get_int("server-pid", 0));
  flags.finish();
  if (dir.empty() || port == 0 || server_pid <= 0 || conns == 0 || conns > 4) {
    std::cerr << "usage: svcbench load --dir D --port P --server-pid PID "
                 "--conns 1..4 [--warmup S] [--seconds S] [--drain S]\n";
    return 2;
  }
  // Wake from ppoll at the scheduled instant, not up to 50 us later.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Generator gen(read_stream(dir + "/stream.tsv"), conns, port);
  const bool complete = gen.run(warmup_s, seconds, drain_s, server_pid);
  gen.final_stats(drain_s);
  gen.write(dir);
  if (!complete) {
    std::cerr << "svcbench load: a connection ran out of stream rows before "
                 "the window closed; generate a longer stream\n";
    return 3;
  }
  return 0;
}

}  // namespace svcbench
