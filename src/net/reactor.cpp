#include "net/reactor.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace rnt::net {
namespace {

constexpr std::size_t kReadChunk = 16384;

/// Descriptors kept back from the connection budget: listener, wake pipe,
/// emergency fd, plus whatever the rest of the process opens (workload
/// files, pool plumbing).
constexpr std::size_t kFdHeadroom = 48;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::size_t cap_from_rlimit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 1024;
  const auto soft = static_cast<std::size_t>(lim.rlim_cur);
  return soft > kFdHeadroom * 2 ? soft - kFdHeadroom : soft / 2 + 1;
}

}  // namespace

Reactor::Reactor(ReactorConfig config)
    : config_(config),
      poller_(make_poller(config.backend)),
      idle_wheel_(config.idle_timeout_ms),
      epoch_(std::chrono::steady_clock::now()) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bind 127.0.0.1:" +
                             std::to_string(config_.port) + ": " + what);
  }
  if (::listen(listen_fd_, config_.backlog) < 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("listen: " + what);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);

  if (::pipe(wake_fds_) < 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("pipe: " + what);
  }
  set_nonblocking(wake_fds_[0]);
  set_nonblocking(wake_fds_[1]);
  emergency_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

  conn_cap_ = config_.max_connections > 0 ? config_.max_connections
                                          : cap_from_rlimit();

  poller_->add(listen_fd_, /*want_read=*/true, /*want_write=*/false);
  poller_->add(wake_fds_[0], /*want_read=*/true, /*want_write=*/false);
}

Reactor::~Reactor() {
  for (auto& [id, conn] : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
  if (emergency_fd_ >= 0) ::close(emergency_fd_);
}

std::uint64_t Reactor::now_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Reactor::stop() {
  stop_.store(true, std::memory_order_release);
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

void Reactor::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    posted_.push_back(std::move(fn));
  }
  const char byte = 'w';
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

Reactor::Connection* Reactor::find(std::uint64_t id) {
  const auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void Reactor::run() {
  std::fprintf(stderr,
               "[net] reactor on 127.0.0.1:%u: %s backend, connection cap "
               "%zu (RLIMIT_NOFILE aware)\n",
               static_cast<unsigned>(port_), poller_->name(), conn_cap_);
  while (!stopping()) {
    poller_->wait(events_, config_.tick_ms);
    bool accept_pending = false;
    // Connection events first, accepts last: a fd freed by a close in
    // this sweep must not be re-issued by accept() while a stale event
    // for its previous owner is still queued.
    for (const PollEvent& event : events_) {
      if (event.fd == listen_fd_) {
        accept_pending = true;
      } else if (event.fd == wake_fds_[0]) {
        drain_wake_pipe();
      } else {
        handle_event(event);
      }
    }
    run_posted();
    if (accept_pending && !stopping()) accept_ready();
    tick();
  }
  drain_then_close();
}

void Reactor::drain_then_close() {
  draining_ = true;
  poller_->remove(listen_fd_);
  for (auto& [id, conn] : conns_) sync_interest(*conn);
  const std::uint64_t deadline = now_ms() + config_.drain_timeout_ms;
  while (now_ms() < deadline) {
    run_posted();
    if (!any_pending_output() && !drain_pending()) break;
    poller_->wait(events_, 10);
    for (const PollEvent& event : events_) {
      if (event.fd == wake_fds_[0]) {
        drain_wake_pipe();
      } else if (event.fd != listen_fd_) {
        handle_event(event);
      }
    }
  }
  run_posted();
  while (!conns_.empty()) destroy(*conns_.begin()->second);
}

bool Reactor::any_pending_output() const {
  for (const auto& [id, conn] : conns_) {
    if (conn->out_off < conn->out.size()) return true;
  }
  return false;
}

void Reactor::run_posted() {
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    if (posted_.empty()) return;
    run_scratch_.swap(posted_);
  }
  for (auto& fn : run_scratch_) fn();
  run_scratch_.clear();
}

void Reactor::drain_wake_pipe() {
  char buf[256];
  while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
  }
}

void Reactor::tick() {
  const std::uint64_t now = now_ms();
  if (now - last_tick_ms_ < static_cast<std::uint64_t>(config_.tick_ms)) {
    return;
  }
  last_tick_ms_ = now;
  if (config_.idle_timeout_ms > 0) {
    idle_wheel_.expire(now, expired_scratch_);
    for (const std::uint64_t id : expired_scratch_) {
      Connection* conn = find(id);
      if (conn) on_idle_timeout(*conn);
    }
  }
  on_tick();
}

void Reactor::on_oversized(Connection& conn) { close_now(conn); }

void Reactor::on_idle_timeout(Connection& conn) { close_now(conn); }

// ---------------------------------------------------------------------------
// Accepting
// ---------------------------------------------------------------------------

void Reactor::accept_ready() {
  // Bounded burst so one accept storm cannot starve established
  // connections; the listener stays readable and the next sweep resumes.
  for (int i = 0; i < 256; ++i) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNABORTED || errno == EPROTO) continue;
      if (errno == EMFILE || errno == ENFILE) {
        recover_emfile();
        continue;
      }
      return;  // EAGAIN/EWOULDBLOCK or a hard listener error.
    }
    if (conns_.size() >= conn_cap_) {
      shed_accept(fd);
      continue;
    }
    accept_one(fd);
  }
}

void Reactor::accept_one(int fd) {
  set_nonblocking(fd);
  // Subclasses hand send_to() whole frames, so Nagle has nothing to
  // coalesce; left on, it holds each reply behind an unacknowledged one
  // until the peer's delayed ACK (40 ms minimum on Linux) arrives.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto conn = std::make_unique<Connection>();
  conn->id = next_id_++;
  conn->fd = fd;
  conn->framer = make_framer(config_.framing, config_.max_frame_bytes);
  Connection* raw = conn.get();
  conns_.emplace(raw->id, std::move(conn));
  fd_to_id_[fd] = raw->id;
  poller_->add(fd, /*want_read=*/true, /*want_write=*/false);
  if (config_.idle_timeout_ms > 0) idle_wheel_.touch(raw->id, now_ms());
  accepted_.fetch_add(1, std::memory_order_relaxed);
  open_count_.store(conns_.size(), std::memory_order_relaxed);
  on_accepted(*raw);
}

void Reactor::shed_accept(int fd) {
  const std::string banner = reject_banner();
  if (!banner.empty()) {
    // Best effort: a full socket buffer or dead peer just means the
    // banner is lost along with the connection.
    [[maybe_unused]] const ssize_t n =
        ::send(fd, banner.data(), banner.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  }
  // Count (here and in the subclass) before closing: the peer observes
  // the shed as EOF, and anything watching the counters after that EOF
  // must already see it.
  shed_connections_.fetch_add(1, std::memory_order_relaxed);
  on_rejected();
  ::close(fd);
  if (!logged_shed_) {
    logged_shed_ = true;
    std::fprintf(stderr,
                 "[net] connection cap %zu reached; shedding new "
                 "connections with a structured reject\n",
                 conn_cap_);
  }
}

void Reactor::recover_emfile() {
  // The classic EMFILE dance: give back the reserved descriptor, accept
  // the pending connection into it, shed it, then re-reserve.  Without
  // this the listener spins hot on a connection it can never dequeue.
  if (emergency_fd_ >= 0) {
    ::close(emergency_fd_);
    emergency_fd_ = -1;
  }
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd >= 0) shed_accept(fd);
  emergency_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
}

// ---------------------------------------------------------------------------
// Connection I/O
// ---------------------------------------------------------------------------

void Reactor::handle_event(const PollEvent& event) {
  const auto idit = fd_to_id_.find(event.fd);
  if (idit == fd_to_id_.end()) return;  // Closed earlier in this sweep.
  const std::uint64_t id = idit->second;
  Connection* conn = find(id);
  if (conn == nullptr) return;
  if (event.writable) {
    flush(*conn);
    conn = find(id);
    if (conn == nullptr) return;
  }
  if (event.readable || event.error) {
    if (conn->read_closed || draining_) {
      // Nothing more will be read; an error here means the peer died
      // while we were flushing to it.
      if (event.error) destroy(*conn);
      return;
    }
    handle_readable(*conn);
  }
}

void Reactor::handle_readable(Connection& conn) {
  const std::uint64_t id = conn.id;
  char chunk[kReadChunk];
  bool got_bytes = false;
  bool eof = false;
  for (;;) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      got_bytes = true;
      conn.framer->append(chunk, static_cast<std::size_t>(n));
      // Level-triggered: anything still buffered re-signals next sweep,
      // so one chunk per event keeps sweeps fair across connections.
      break;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    destroy(conn);  // ECONNRESET and friends: nothing left to deliver.
    return;
  }
  if (got_bytes) {
    if (config_.idle_timeout_ms > 0) idle_wheel_.touch(id, now_ms());
    pump_frames(conn);
  }
  Connection* still = find(id);
  if (still == nullptr) return;
  if (eof) {
    // Peer half-closed: dispatch what is buffered, deliver what is owed,
    // then go away.
    still->read_closed = true;
    still->close_when_idle = true;
    if (still->out_off >= still->out.size() && !connection_busy(*still)) {
      destroy(*still);
      return;
    }
    sync_interest(*still);
  }
}

void Reactor::pump_frames(Connection& conn) {
  const std::uint64_t id = conn.id;
  bool first = true;
  for (;;) {
    Connection* c = find(id);
    if (c == nullptr || c->close_after_flush) return;
    std::string_view frame;
    const FrameStatus status = c->framer->next_frame(frame);
    if (status == FrameStatus::kNeedMore) return;
    if (status == FrameStatus::kOversized) {
      // The stream is poisoned; stop reading and let the subclass decide
      // when to close (it may owe ordered replies first).
      on_oversized(*c);
      c = find(id);
      if (c != nullptr) {
        c->read_closed = true;
        sync_interest(*c);
      }
      return;
    }
    on_frame(*c, frame, /*pipelined=*/!first);
    first = false;
  }
}

void Reactor::send_to(Connection& conn, std::string_view data) {
  conn.out.append(data);
  flush(conn);
}

void Reactor::flush(Connection& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n >= 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Reclaim the sent prefix once it dominates the buffer.
      if (conn.out_off > 65536) {
        conn.out.erase(0, conn.out_off);
        conn.out_off = 0;
      }
      sync_interest(conn);
      return;
    }
    // EPIPE/ECONNRESET with queued output: replies were computed but
    // never delivered.
    on_transport_error(conn);
    destroy(conn);
    return;
  }
  conn.out.clear();
  conn.out_off = 0;
  if (conn.close_after_flush) {
    destroy(conn);
    return;
  }
  if (conn.close_when_idle && !connection_busy(conn)) {
    destroy(conn);
    return;
  }
  sync_interest(conn);
}

void Reactor::sync_interest(Connection& conn) {
  const bool want_read = !conn.read_closed && !draining_;
  const bool want_write = conn.out_off < conn.out.size();
  if (want_read == conn.reg_read && want_write == conn.want_write) return;
  conn.reg_read = want_read;
  conn.want_write = want_write;
  poller_->modify(conn.fd, want_read, want_write);
}

void Reactor::close_soon(Connection& conn) {
  conn.close_after_flush = true;
  conn.read_closed = true;
  if (conn.out_off >= conn.out.size()) {
    destroy(conn);
    return;
  }
  sync_interest(conn);
}

void Reactor::close_now(Connection& conn) { destroy(conn); }

void Reactor::destroy(Connection& conn) {
  on_closed(conn);
  const int fd = conn.fd;
  const std::uint64_t id = conn.id;
  poller_->remove(fd);
  ::close(fd);
  idle_wheel_.erase(id);
  fd_to_id_.erase(fd);
  conns_.erase(id);
  open_count_.store(conns_.size(), std::memory_order_relaxed);
}

}  // namespace rnt::net
