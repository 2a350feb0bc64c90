#include "service/reactor_server.h"

#include <utility>

namespace rnt::service {
namespace {

net::ReactorConfig reactor_config(const ReactorServerConfig& config) {
  net::ReactorConfig rc;
  rc.port = config.port;
  rc.backlog = config.backlog;
  rc.max_frame_bytes = config.max_line_bytes;
  rc.framing = net::FramingMode::kLine;
  rc.backend = config.backend;
  rc.idle_timeout_ms = config.idle_timeout_ms;
  rc.max_connections = config.max_connections;
  return rc;
}

}  // namespace

ReactorServer::ReactorServer(ReactorServerConfig config)
    : net::Reactor(reactor_config(config)),
      config_(config),
      service_(ServiceConfig{.threads = config.threads,
                             .cache_capacity = config.cache_capacity}) {}

void ReactorServer::run() {
  net::Reactor::run();
  service_.shutdown();  // Drain-and-join the request pool.
}

void ReactorServer::on_frame(Connection& conn, std::string_view frame,
                             bool pipelined) {
  if (pipelined) service_.note_pipelined_request();
  ConnState& state = states_[conn.id];
  const std::uint64_t seq = state.next_seq++;
  ++state.unanswered;

  // Detect shutdown before dispatching so the loop stops even if the
  // pool is busy.
  bool is_shutdown = false;
  std::string line(frame);
  try {
    is_shutdown = parse_request(line).type == RequestType::kShutdown;
  } catch (const std::exception&) {
    // Fall through; handle_line turns it into an error reply.
  }

  if (!is_shutdown && config_.max_queue > 0 &&
      in_flight_ >= config_.max_queue) {
    // Admission queue full: answer in order, keep the connection.
    service_.note_shed_request();
    queue_reply(conn.id, seq,
                format_response(
                    Response::failure("overloaded: admission queue full")));
    return;
  }

  ++in_flight_;
  service_.set_queue_depth(in_flight_);
  state.pending.emplace(seq, PendingRequest{false, is_shutdown});
  deadlines_.emplace(
      now_ms() +
          static_cast<std::uint64_t>(config_.request_timeout_s * 1000.0),
      std::make_pair(conn.id, seq));

  const std::uint64_t conn_id = conn.id;
  try {
    service_.submit_line(std::move(line), [this, conn_id, seq](Response r) {
      // Pool thread: format here, then hop back onto the loop.
      std::string reply = format_response(r);
      post([this, conn_id, seq, reply = std::move(reply)]() mutable {
        complete(conn_id, seq, std::move(reply));
      });
    });
  } catch (const std::exception& e) {
    // submit() after shutdown, or a torn-down pool.
    --in_flight_;
    service_.set_queue_depth(in_flight_);
    ConnState& st = states_[conn_id];
    st.pending.erase(seq);
    queue_reply(conn_id, seq, format_response(Response::failure(e.what())));
  }
}

void ReactorServer::complete(std::uint64_t conn_id, std::uint64_t seq,
                             std::string reply) {
  --in_flight_;
  service_.set_queue_depth(in_flight_);
  const auto sit = states_.find(conn_id);
  if (sit == states_.end()) return;  // Connection closed; counted there.
  ConnState& state = sit->second;
  const auto pit = state.pending.find(seq);
  if (pit == state.pending.end()) return;
  const bool answered = pit->second.answered;
  const bool is_shutdown = pit->second.shutdown;
  state.pending.erase(pit);
  if (answered) return;  // A timeout reply already went out in its place.
  if (is_shutdown) state.close_after_last = true;
  queue_reply(conn_id, seq, std::move(reply));
  if (is_shutdown) stop();
}

void ReactorServer::queue_reply(std::uint64_t conn_id, std::uint64_t seq,
                                std::string reply) {
  const auto sit = states_.find(conn_id);
  if (sit == states_.end()) return;
  sit->second.ready.emplace(seq, std::move(reply));
  deliver_ready(conn_id);
}

void ReactorServer::deliver_ready(std::uint64_t conn_id) {
  const auto sit = states_.find(conn_id);
  if (sit == states_.end()) return;
  ConnState& state = sit->second;
  std::string batch;
  while (!state.ready.empty() &&
         state.ready.begin()->first == state.next_to_send) {
    batch += state.ready.begin()->second;
    batch += '\n';
    state.ready.erase(state.ready.begin());
    ++state.next_to_send;
    --state.unanswered;
  }
  if (batch.empty()) return;
  Connection* conn = find(conn_id);
  if (conn == nullptr) return;
  send_to(*conn, batch);  // May destroy the connection on a send failure.
  conn = find(conn_id);
  if (conn == nullptr) return;
  const auto again = states_.find(conn_id);
  if (again == states_.end()) return;
  if (again->second.close_after_last && again->second.unanswered == 0) {
    close_soon(*conn);
  }
}

void ReactorServer::on_oversized(Connection& conn) {
  // A structured cap reply, delivered in order behind anything already
  // owed, then the connection closes.
  ConnState& state = states_[conn.id];
  const std::uint64_t seq = state.next_seq++;
  ++state.unanswered;
  state.close_after_last = true;
  queue_reply(conn.id, seq,
              format_response(Response::failure(
                  "request line exceeds " +
                  std::to_string(config_.max_line_bytes) + " bytes")));
}

void ReactorServer::on_idle_timeout(Connection& conn) {
  service_.note_idle_timeout();
  net::Reactor::on_idle_timeout(conn);  // Close immediately.
}

void ReactorServer::on_transport_error(Connection& conn) {
  (void)conn;
  // Queued replies were computed but never reached the peer.
  service_.note_transport_error();
}

void ReactorServer::on_closed(Connection& conn) {
  const auto sit = states_.find(conn.id);
  if (sit != states_.end()) {
    // Every reply still owed — in flight on the pool or waiting in the
    // reorder buffer — was computed (or will be) for a peer that is gone.
    for (const auto& [seq, pending] : sit->second.pending) {
      if (!pending.answered) service_.note_transport_error();
    }
    for (const auto& [seq, reply] : sit->second.ready) {
      (void)reply;
      service_.note_transport_error();
    }
    states_.erase(sit);
  }
  const std::size_t open = open_connections();
  service_.set_open_connections(open > 0 ? open - 1 : 0);
}

void ReactorServer::on_accepted(Connection& conn) {
  (void)conn;
  service_.set_open_connections(open_connections());
}

void ReactorServer::on_rejected() { service_.note_shed_connection(); }

void ReactorServer::on_tick() {
  const std::uint64_t now = now_ms();
  while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
    const auto [conn_id, seq] = deadlines_.begin()->second;
    deadlines_.erase(deadlines_.begin());
    const auto sit = states_.find(conn_id);
    if (sit == states_.end()) continue;
    const auto pit = sit->second.pending.find(seq);
    if (pit == sit->second.pending.end() || pit->second.answered) continue;
    // The handler keeps running on the pool; its result is dropped.
    pit->second.answered = true;
    queue_reply(conn_id, seq,
                format_response(Response::failure(
                    "timeout: request exceeded " +
                    std::to_string(config_.request_timeout_s) + "s")));
  }
  service_.set_open_connections(open_connections());
  service_.set_queue_depth(in_flight_);
}

std::string ReactorServer::reject_banner() {
  return format_response(
             Response::failure("overloaded: connection limit reached")) +
         "\n";
}

bool ReactorServer::drain_pending() { return in_flight_ > 0; }

bool ReactorServer::connection_busy(const Connection& conn) const {
  const auto sit = states_.find(conn.id);
  return sit != states_.end() && sit->second.unanswered > 0;
}

}  // namespace rnt::service
