// koios_serverd's front-end: a single poll-driven event loop that maps TCP
// connections onto QueryEngine::SubmitCancellable and streams results back
// as the engine finalizes them. The loop never blocks on the engine: each
// query's completion callback writes an eventfd in the loop's poll set, and
// the woken loop collects the ready futures. So one slow query cannot stall
// accepts, reads, health checks or other connections' responses, and a
// finished query is answered as soon as it completes. The poll's one
// timeout, 50 ms, paces the deadline sweeps below.
//
// Robustness contract (the issue's checklist, in code):
//  * Hard connection cap — accepts past ServerOptions::max_connections are
//    closed immediately (counted, never queued).
//  * Max request size — enforced from the frame HEADER, before the body is
//    buffered; oversized requests get kInvalidArgument, then the
//    connection closes.
//  * Slow-loris defense — a connection holding an INCOMPLETE request
//    longer than read_deadline is closed; an idle one longer than
//    idle_timeout likewise.
//  * Stalled-reader defense — per-connection output is bounded by
//    max_output_buffer_bytes; a peer that stops reading while results
//    stream is SHED (connection closed, in-flight queries cancelled)
//    instead of growing the buffer without bound. No write progress for
//    write_deadline with data pending closes it too.
//  * Disconnect propagation — closing a connection fires the CancelToken
//    of every query it still has in flight, so abandoned work stops
//    burning workers (engine counts it as kCancelled).
//  * Backpressure translation — engine rejections (queue full, fail-fast,
//    deadline) flow to the wire verbatim, retry_after_ms included. A
//    request arriving before the first snapshot is live, or while
//    draining, gets kUnavailable with a retry hint.
//  * Graceful drain — Drain() stops accepting, flips /readyz to 503,
//    answers new queries kUnavailable, lets in-flight queries finish and
//    their responses flush, then closes everything; bounded by
//    drain_deadline. The daemon calls this on SIGTERM and exits 0.
//
// Liveness vs readiness: /healthz is process-alive (200 from the moment
// Start() returns, draining or not); /readyz is traffic-ready (200 only
// with a live snapshot and not draining) — the load-balancer signal.
#ifndef KOIOS_NET_SERVER_H_
#define KOIOS_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "koios/net/engine_slot.h"
#include "koios/net/socket.h"
#include "koios/util/metric_registry.h"
#include "koios/util/status.h"

namespace koios::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; read the actual port from port() after Start().
  uint16_t port = 0;
  /// Hard cap on concurrently open connections.
  size_t max_connections = 256;
  /// Largest accepted request frame body (binary) or line (JSON/HTTP).
  size_t max_request_bytes = 1 << 20;
  /// An incomplete request older than this closes the connection.
  std::chrono::milliseconds read_deadline{10'000};
  /// Pending output with no write progress for this long closes it.
  std::chrono::milliseconds write_deadline{10'000};
  /// A connection with nothing in flight and no traffic for this long is
  /// closed (0 = never).
  std::chrono::milliseconds idle_timeout{60'000};
  /// Per-connection output buffer bound; exceeding it sheds the peer.
  size_t max_output_buffer_bytes = 4 << 20;
  /// Drain() gives in-flight work this long before force-closing.
  std::chrono::milliseconds drain_deadline{5'000};
  /// Applied to queries that arrive with deadline_ms == 0 (0 = none).
  std::chrono::milliseconds default_query_deadline{0};
  /// retry_after_ms attached to kUnavailable (not ready / draining).
  int64_t unavailable_retry_after_ms = 500;
};

/// Monotone server counters (snapshot; all fields count since Start()).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected_at_cap = 0;
  uint64_t connections_closed = 0;
  uint64_t accept_errors = 0;
  uint64_t read_errors = 0;
  uint64_t write_errors = 0;
  uint64_t requests = 0;
  uint64_t responses_ok = 0;
  uint64_t responses_error = 0;
  uint64_t oversized_rejected = 0;
  uint64_t protocol_errors = 0;
  uint64_t slow_loris_closes = 0;
  uint64_t stalled_reader_sheds = 0;
  uint64_t idle_closes = 0;
  uint64_t queries_cancelled_on_disconnect = 0;
  uint64_t unavailable_rejections = 0;
  uint64_t http_requests = 0;
};

class Server {
 public:
  /// `slot` (required) is where the repository watcher installs the engine;
  /// a null slot CONTENT means not-ready, never a crash. `registry`
  /// (optional) receives the koios_server_* metric family and serves
  /// /metrics; with nullptr the endpoint returns 404.
  Server(EngineSlot* slot, util::MetricRegistry* registry,
         const ServerOptions& options = {});
  /// Stops hard (in-flight queries cancelled); call Drain() first for the
  /// graceful path.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the event-loop thread.
  util::Status Start();

  /// Graceful shutdown: stop accepting, go unready, finish + flush
  /// in-flight work, then close. BLOCKS until drained or drain_deadline
  /// (whichever first), then joins the loop. Idempotent.
  void Drain();

  /// Immediate shutdown (pending queries cancelled). Idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  bool started() const { return started_; }
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }
  /// Traffic-ready: started, not draining, and a snapshot is live.
  bool ready() const;

  ServerStats stats() const;

  /// Pimpl'd loop state; public only as a NAME so the event-loop helper
  /// functions in server.cc can take it — the definition never leaves the
  /// .cc file.
  struct Impl;

 private:
  void Loop();

  std::unique_ptr<Impl> impl_;
  EngineSlot* slot_;
  util::MetricRegistry* registry_;
  ServerOptions options_;
  uint16_t port_ = 0;
  bool started_ = false;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};
  std::thread loop_thread_;
};

}  // namespace koios::net

#endif  // KOIOS_NET_SERVER_H_
