#include "koios/net/server.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <future>
#include <list>
#include <vector>

#include "koios/net/protocol.h"
#include "koios/util/trace_recorder.h"

namespace koios::net {

namespace {

constexpr size_t kReadChunk = 16 * 1024;
constexpr int kListenBacklog = 64;
// In-flight queries per connection before its reads pause (backpressure).
constexpr size_t kMaxPipelinedRequests = 128;
// The loop's only poll timeout: the deadline sweeps (slow-loris, stalled
// writes, idle closes, the drain deadline) need a turn this often. Query
// completions do not wait for it; they wake the poll through the eventfd.
constexpr int kSweepIntervalMs = 50;

std::string HttpResponse(int code, const std::string& reason,
                         const std::string& body, bool head_only,
                         const char* content_type =
                             "text/plain; charset=utf-8") {
  std::string out = "HTTP/1.0 " + std::to_string(code) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n";
  if (!head_only) out += body;
  return out;
}

}  // namespace

/// The event loop's wakeup: an eventfd in its poll set that every query
/// completion callback, Stop() and Drain() write. The server and every
/// in-flight callback share ownership, so a query that completes after the
/// server is gone (the engine outlives the server in koios_serverd) writes
/// to this still-open fd, never to a closed or reused one.
class Wakeup {
 public:
  Wakeup() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}
  ~Wakeup() {
    if (fd_ >= 0) ::close(fd_);
  }
  Wakeup(const Wakeup&) = delete;
  Wakeup& operator=(const Wakeup&) = delete;

  int fd() const { return fd_; }
  void Notify() const {
    const uint64_t one = 1;
    // Fails only when the counter is about to overflow, and then the fd
    // is readable already.
    [[maybe_unused]] const ssize_t n = ::write(fd_, &one, sizeof one);
  }
  /// Zeroes the counter: the next poll blocks until a new Notify.
  void Clear() const {
    uint64_t count = 0;
    [[maybe_unused]] const ssize_t n = ::read(fd_, &count, sizeof count);
  }

 private:
  int fd_;
};

struct PendingQuery {
  uint32_t query_index = 0;
  std::shared_ptr<serve::CancelToken> cancel;
  std::future<serve::QueryEngine::Result> future;
  std::chrono::steady_clock::time_point submitted;
  // Sampled-query trace: the request root span opens at parse/submit and
  // is recorded when the response is emitted (net.request).
  uint64_t trace_id = 0;
  uint64_t root_span = 0;
  int64_t trace_t0_ns = 0;

  bool Ready() const {
    return future.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  }
};

struct Connection {
  Socket sock;
  enum class Mode { kUnknown, kBinary, kJson, kHttp } mode = Mode::kUnknown;
  std::string inbuf;
  std::string outbuf;
  size_t out_off = 0;
  bool close_after_flush = false;
  bool dead = false;
  std::vector<PendingQuery> pending;
  std::chrono::steady_clock::time_point last_activity;
  // Slow-loris tracking: set while inbuf holds a PARTIAL request.
  bool has_incomplete = false;
  std::chrono::steady_clock::time_point incomplete_since;
  std::chrono::steady_clock::time_point last_write_progress;

  bool HasUnflushedOutput() const { return out_off < outbuf.size(); }
};

struct Server::Impl {
  Socket listener;
  std::shared_ptr<const Wakeup> wakeup;  // set by Start()
  std::list<Connection> connections;

  // Authoritative counters (atomics: the loop thread writes, stats() and
  // the metrics callback read from other threads).
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_rejected_at_cap{0};
  std::atomic<uint64_t> connections_closed{0};
  std::atomic<uint64_t> accept_errors{0};
  std::atomic<uint64_t> read_errors{0};
  std::atomic<uint64_t> write_errors{0};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> responses_ok{0};
  std::atomic<uint64_t> responses_error{0};
  std::atomic<uint64_t> oversized_rejected{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> slow_loris_closes{0};
  std::atomic<uint64_t> stalled_reader_sheds{0};
  std::atomic<uint64_t> idle_closes{0};
  std::atomic<uint64_t> queries_cancelled_on_disconnect{0};
  std::atomic<uint64_t> unavailable_rejections{0};
  std::atomic<uint64_t> http_requests{0};

  // Request latency split by wire dialect (may stay null): wire-layer
  // overhead is attributable separately from engine time per protocol.
  util::Histogram* request_seconds_binary = nullptr;
  util::Histogram* request_seconds_json = nullptr;
  util::Histogram* request_seconds_http = nullptr;
  util::Gauge* open_connections = nullptr;      // may stay null

  // Server-lifecycle trace (accept bursts record under it); 0 when the
  // trace recorder was disabled at Start().
  uint64_t server_trace = 0;

  void Close(Connection& c) {
    if (c.dead) return;
    c.dead = true;
    // Disconnect propagation: nobody will read these answers, so stop the
    // workers computing them. The engine resolves them as kCancelled; the
    // dropped futures are safe (the promise's shared state is refcounted).
    for (PendingQuery& p : c.pending) {
      // Resolved entries (JSON parse errors) have no engine-side work to
      // cancel and don't count as cancelled queries.
      if (p.cancel == nullptr) continue;
      p.cancel->Cancel();
      queries_cancelled_on_disconnect.fetch_add(1, std::memory_order_relaxed);
    }
    c.pending.clear();
    c.sock.Close();
    connections_closed.fetch_add(1, std::memory_order_relaxed);
  }
};

Server::Server(EngineSlot* slot, util::MetricRegistry* registry,
               const ServerOptions& options)
    : impl_(std::make_unique<Impl>()),
      slot_(slot),
      registry_(registry),
      options_(options) {}

Server::~Server() { Stop(); }

bool Server::ready() const {
  return started_ && !draining_.load(std::memory_order_acquire) &&
         slot_->Get() != nullptr;
}

ServerStats Server::stats() const {
  const Impl& im = *impl_;
  ServerStats s;
  s.connections_accepted = im.connections_accepted.load();
  s.connections_rejected_at_cap = im.connections_rejected_at_cap.load();
  s.connections_closed = im.connections_closed.load();
  s.accept_errors = im.accept_errors.load();
  s.read_errors = im.read_errors.load();
  s.write_errors = im.write_errors.load();
  s.requests = im.requests.load();
  s.responses_ok = im.responses_ok.load();
  s.responses_error = im.responses_error.load();
  s.oversized_rejected = im.oversized_rejected.load();
  s.protocol_errors = im.protocol_errors.load();
  s.slow_loris_closes = im.slow_loris_closes.load();
  s.stalled_reader_sheds = im.stalled_reader_sheds.load();
  s.idle_closes = im.idle_closes.load();
  s.queries_cancelled_on_disconnect = im.queries_cancelled_on_disconnect.load();
  s.unavailable_rejections = im.unavailable_rejections.load();
  s.http_requests = im.http_requests.load();
  return s;
}

util::Status Server::Start() {
  if (started_) return util::Status::FailedPrecondition("already started");
  impl_->wakeup = std::make_shared<const Wakeup>();
  if (impl_->wakeup->fd() < 0) {
    return util::Status::Internal(std::string("eventfd: ") +
                                  std::strerror(errno));
  }
  util::StatusOr<Socket> listener =
      ListenTcp(options_.bind_address, options_.port, kListenBacklog, &port_);
  if (!listener.ok()) return listener.status();
  impl_->listener = std::move(listener).value();

  if (registry_ != nullptr) {
    const char* request_help =
        "Wall time from request dispatch to response encode, by wire dialect";
    impl_->request_seconds_binary = registry_->RegisterHistogram(
        util::LabeledMetricName("koios_server_request_seconds", "dialect",
                                "binary"),
        request_help, util::ExponentialLatencyBuckets());
    impl_->request_seconds_json = registry_->RegisterHistogram(
        util::LabeledMetricName("koios_server_request_seconds", "dialect",
                                "json"),
        request_help, util::ExponentialLatencyBuckets());
    impl_->request_seconds_http = registry_->RegisterHistogram(
        util::LabeledMetricName("koios_server_request_seconds", "dialect",
                                "http"),
        request_help, util::ExponentialLatencyBuckets());
    impl_->open_connections = registry_->RegisterGauge(
        "koios_server_open_connections", "Currently open client connections");
    util::Gauge* ready_gauge = registry_->RegisterGauge(
        "koios_server_ready", "1 when serving traffic (snapshot live, not "
        "draining), else 0 — the /readyz signal");
    util::Gauge* draining_gauge = registry_->RegisterGauge(
        "koios_server_draining", "1 while a graceful drain is in progress");
    struct Mirror {
      util::Counter* counter;
      std::atomic<uint64_t>* source;
    };
    Impl* im = impl_.get();
    auto mirrors = std::make_shared<std::vector<Mirror>>();
    auto add = [&](const char* name, const char* help,
                   std::atomic<uint64_t>* source) {
      mirrors->push_back({registry_->RegisterCounter(name, help), source});
    };
    add("koios_server_connections_accepted_total", "Accepted connections",
        &im->connections_accepted);
    add("koios_server_connections_rejected_cap_total",
        "Connections closed at the hard connection cap",
        &im->connections_rejected_at_cap);
    add("koios_server_connections_closed_total", "Closed connections",
        &im->connections_closed);
    add("koios_server_accept_errors_total",
        "accept() failures (incl. injected net.accept faults)",
        &im->accept_errors);
    add("koios_server_read_errors_total",
        "Connections dropped on a read error (incl. injected net.read)",
        &im->read_errors);
    add("koios_server_write_errors_total",
        "Connections dropped on a write error (incl. injected net.write)",
        &im->write_errors);
    add("koios_server_requests_total", "Requests dispatched", &im->requests);
    add("koios_server_responses_ok_total", "Successful query responses",
        &im->responses_ok);
    add("koios_server_responses_error_total", "Error query responses",
        &im->responses_error);
    add("koios_server_oversized_requests_total",
        "Requests rejected from the frame header for exceeding the size cap",
        &im->oversized_rejected);
    add("koios_server_protocol_errors_total",
        "Connections closed for malformed requests", &im->protocol_errors);
    add("koios_server_slow_loris_closes_total",
        "Connections closed holding an incomplete request past the read "
        "deadline",
        &im->slow_loris_closes);
    add("koios_server_stalled_reader_sheds_total",
        "Connections shed for not reading their responses (output bound or "
        "write deadline)",
        &im->stalled_reader_sheds);
    add("koios_server_idle_closes_total", "Idle-timeout closes",
        &im->idle_closes);
    add("koios_server_queries_cancelled_on_disconnect_total",
        "In-flight queries cancelled because their connection closed",
        &im->queries_cancelled_on_disconnect);
    add("koios_server_unavailable_rejections_total",
        "Queries rejected kUnavailable (no snapshot yet, or draining)",
        &im->unavailable_rejections);
    add("koios_server_http_requests_total",
        "HTTP requests (/healthz, /readyz, /metrics, /debug/tracez)",
        &im->http_requests);
    registry_->AddCollectionCallback([this, mirrors, ready_gauge,
                                      draining_gauge] {
      for (const Mirror& m : *mirrors) {
        m.counter->Set(m.source->load(std::memory_order_relaxed));
      }
      ready_gauge->Set(ready() ? 1.0 : 0.0);
      draining_gauge->Set(draining() ? 1.0 : 0.0);
    });
  }

  // One always-sampled trace spans the server's lifetime: accept bursts
  // record under it so tracez shows when the loop was busy admitting
  // connections versus serving them.
  if (util::TraceRecorder::Enabled()) {
    impl_->server_trace = util::TraceRecorder::Instance().StartTraceForced();
  }

  started_ = true;
  stop_.store(false, std::memory_order_release);
  loop_thread_ = std::thread([this] { Loop(); });
  return util::Status::OK();
}

void Server::Drain() {
  if (!started_) return;
  draining_.store(true, std::memory_order_release);
  impl_->wakeup->Notify();
  if (loop_thread_.joinable()) loop_thread_.join();
}

void Server::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  impl_->wakeup->Notify();
  if (loop_thread_.joinable()) loop_thread_.join();
}

// ----------------------------------------------------------- event loop --

namespace {

/// Everything the per-connection handlers need from the server, bundled so
/// they can live as free functions below instead of a god-object method.
struct LoopContext {
  Server::Impl* im;
  EngineSlot* slot;
  util::MetricRegistry* registry;
  const ServerOptions* opts;
  const Server* server;
  bool draining = false;
};

/// Appends `payload` to the connection's output, enforcing the bounded
/// output buffer: a peer that is not reading gets shed, never buffered
/// into an OOM.
void QueueOutput(LoopContext& ctx, Connection& c, const std::string& payload) {
  if (c.dead) return;
  if (!c.HasUnflushedOutput()) {
    c.last_write_progress = std::chrono::steady_clock::now();
  }
  c.outbuf += payload;
  if (c.outbuf.size() - c.out_off > ctx.opts->max_output_buffer_bytes) {
    ctx.im->stalled_reader_sheds.fetch_add(1, std::memory_order_relaxed);
    ctx.im->Close(c);
  }
}

/// Encodes the query's answer onto the connection. A search that threw
/// (bad_alloc, a faulty similarity backend) arrives as an Internal status
/// for this one query: the engine never puts an exception in the future.
void EmitResult(LoopContext& ctx, Connection& c, PendingQuery& p) {
  const serve::QueryEngine::Result result = p.future.get();
  util::Histogram* request_seconds = c.mode == Connection::Mode::kJson
                                         ? ctx.im->request_seconds_json
                                         : ctx.im->request_seconds_binary;
  if (request_seconds != nullptr) {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      p.submitted)
            .count();
    request_seconds->Observe(seconds);
  }
  if (p.trace_id != 0) {
    // Close the request root: parse/submit time through response encode.
    auto& rec = util::TraceRecorder::Instance();
    rec.RecordManualSpan("net.request", p.trace_id, p.root_span,
                         /*parent_id=*/0, p.trace_t0_ns, rec.NowNs(),
                         "query_index", p.query_index);
  }
  std::string payload;
  if (c.mode == Connection::Mode::kJson) {
    payload = result.ok() ? JsonOkResponse(result.value().topk)
                          : JsonErrorResponse(result.status());
    payload += '\n';
  } else {
    if (result.ok()) {
      AppendOkResponse(p.query_index, result.value().topk, &payload);
    } else {
      AppendErrorResponse(p.query_index, result.status(), &payload);
    }
  }
  if (result.ok()) {
    ctx.im->responses_ok.fetch_add(1, std::memory_order_relaxed);
  } else {
    ctx.im->responses_error.fetch_add(1, std::memory_order_relaxed);
  }
  QueueOutput(ctx, c, payload);
}

util::Status UnavailableStatus(LoopContext& ctx) {
  const bool draining = ctx.draining;
  return util::Status::Unavailable(draining
                                       ? "server is draining; retry against "
                                         "another replica"
                                       : "no snapshot live yet")
      .WithRetryAfterMs(ctx.opts->unavailable_retry_after_ms);
}

/// Submits one query (shared by binary and JSON dispatch). An unready or
/// draining server answers kUnavailable instead of touching the engine;
/// engine-side rejections (queue full, fail-fast) resolve through the
/// future like any other result — the retry hint crosses the wire intact.
void SubmitQuery(LoopContext& ctx, Connection& c, uint32_t query_index,
                 std::vector<TokenId> tokens, uint32_t k, double alpha,
                 uint32_t deadline_ms, int64_t parse_t0_ns = 0,
                 int64_t parse_t1_ns = 0) {
  std::shared_ptr<serve::QueryEngine> engine = ctx.slot->Get();
  if (engine == nullptr || ctx.draining) {
    ctx.im->unavailable_rejections.fetch_add(1, std::memory_order_relaxed);
    if (c.mode == Connection::Mode::kJson) {
      // JSON responses are correlated strictly by line order, so the
      // rejection must wait its turn behind earlier pipelined queries:
      // enqueue it as an already-resolved entry (same head-of-line
      // mechanism as the parse-error path). EmitResult counts the error.
      std::promise<serve::QueryEngine::Result> resolved;
      resolved.set_value(UnavailableStatus(ctx));
      PendingQuery p;
      p.future = resolved.get_future();
      p.submitted = std::chrono::steady_clock::now();
      c.pending.push_back(std::move(p));
    } else {
      std::string payload;
      AppendErrorResponse(query_index, UnavailableStatus(ctx), &payload);
      ctx.im->responses_error.fetch_add(1, std::memory_order_relaxed);
      QueueOutput(ctx, c, payload);
    }
    return;
  }
  core::SearchParams params;
  params.k = k;
  params.alpha = alpha;
  std::chrono::milliseconds deadline(deadline_ms);
  if (deadline.count() == 0) deadline = ctx.opts->default_query_deadline;

  // The sampling decision is made here at the wire, so a sampled trace
  // covers the whole request: wire parse, engine queue wait, and search.
  auto& rec = util::TraceRecorder::Instance();
  const uint64_t trace = rec.StartTrace();
  uint64_t root = 0;
  int64_t request_t0 = 0;
  if (trace != 0) {
    root = rec.NewSpanId();
    request_t0 = parse_t0_ns != 0 ? parse_t0_ns : rec.NowNs();
    if (parse_t0_ns != 0) {
      rec.RecordManualSpan("net.parse", trace, /*span_id=*/0, root,
                           parse_t0_ns, parse_t1_ns);
    }
  }
  // The engine's Enqueue captures the ambient trace; its queue_wait and
  // search spans nest under this request's root span.
  util::TraceAdopt adopt(trace, root);
  serve::QueryEngine::Submission submission = engine->SubmitCancellable(
      std::move(tokens), params, deadline,
      [wakeup = ctx.im->wakeup] { wakeup->Notify(); });
  PendingQuery p;
  p.query_index = query_index;
  p.cancel = std::move(submission.cancel);
  p.future = std::move(submission.future);
  p.submitted = std::chrono::steady_clock::now();
  p.trace_id = trace;
  p.root_span = root;
  p.trace_t0_ns = request_t0;
  c.pending.push_back(std::move(p));
}

void DispatchBinary(LoopContext& ctx, Connection& c, RequestFrame&& req,
                    int64_t parse_t0_ns, int64_t parse_t1_ns) {
  ctx.im->requests.fetch_add(1, std::memory_order_relaxed);
  if (req.op == Op::kPing) {
    std::string payload;
    AppendPingResponse(&payload);
    QueueOutput(ctx, c, payload);
    return;
  }
  for (uint32_t i = 0; i < req.queries.size() && !c.dead; ++i) {
    SubmitQuery(ctx, c, i, std::move(req.queries[i]), req.k, req.alpha,
                req.deadline_ms, parse_t0_ns, parse_t1_ns);
  }
}

void DispatchJsonLine(LoopContext& ctx, Connection& c,
                      const std::string& line) {
  ctx.im->requests.fetch_add(1, std::memory_order_relaxed);
  const bool tracing = util::TraceRecorder::Enabled();
  const int64_t parse_t0 =
      tracing ? util::TraceRecorder::Instance().NowNs() : 0;
  JsonRequest req;
  if (util::Status s = ParseJsonRequestLine(line, &req); !s.ok()) {
    ctx.im->protocol_errors.fetch_add(1, std::memory_order_relaxed);
    // JSON responses carry no query index — the client correlates them to
    // requests strictly by order. The parse error therefore takes its
    // place in the head-of-line queue as an already-resolved entry; an
    // immediate write would jump ahead of earlier queries still in
    // flight and misattribute every response after it.
    std::promise<serve::QueryEngine::Result> resolved;
    resolved.set_value(std::move(s));
    PendingQuery p;
    p.future = resolved.get_future();
    p.submitted = std::chrono::steady_clock::now();
    c.pending.push_back(std::move(p));
    return;
  }
  const int64_t parse_t1 =
      tracing ? util::TraceRecorder::Instance().NowNs() : 0;
  SubmitQuery(ctx, c, 0, std::move(req.tokens), req.k, req.alpha,
              req.deadline_ms, parse_t0, parse_t1);
}

void DispatchHttp(LoopContext& ctx, Connection& c, const std::string& head) {
  ctx.im->http_requests.fetch_add(1, std::memory_order_relaxed);
  const auto handle_t0 = std::chrono::steady_clock::now();
  const size_t line_end = head.find("\r\n");
  const std::string request_line =
      head.substr(0, line_end == std::string::npos ? head.find('\n')
                                                   : line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  const std::string method =
      sp1 == std::string::npos ? request_line : request_line.substr(0, sp1);
  const std::string path = sp2 == std::string::npos
                               ? std::string()
                               : request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const bool head_only = method == "HEAD";

  std::string response;
  if (method != "GET" && method != "HEAD") {
    response = HttpResponse(405, "Method Not Allowed", "GET or HEAD only\n",
                            false);
  } else if (path == "/healthz") {
    // Liveness: the process is up and its loop is turning — draining or
    // not-yet-ready both still answer 200 here.
    response = HttpResponse(200, "OK", "ok\n", head_only);
  } else if (path == "/readyz") {
    if (ctx.server->ready()) {
      response = HttpResponse(200, "OK", "ready\n", head_only);
    } else {
      response = HttpResponse(
          503, "Service Unavailable",
          ctx.draining ? "draining\n" : "no snapshot loaded\n", head_only);
    }
  } else if (path == "/metrics") {
    if (ctx.registry != nullptr) {
      response =
          HttpResponse(200, "OK", ctx.registry->RenderText(), head_only);
    } else {
      response = HttpResponse(404, "Not Found", "no metric registry\n",
                              head_only);
    }
  } else if (path == "/debug/tracez") {
    // Chrome trace-event JSON of the recently sampled queries; load the
    // body in Perfetto (ui.perfetto.dev) or chrome://tracing. Valid (with
    // an empty traceEvents array) even when tracing is disabled.
    response = HttpResponse(
        200, "OK", util::TraceRecorder::Instance().RenderChromeTraceJson(),
        head_only, "application/json");
  } else {
    response = HttpResponse(
        404, "Not Found",
        "try /healthz, /readyz, /metrics or /debug/tracez\n", head_only);
  }
  if (ctx.im->request_seconds_http != nullptr) {
    ctx.im->request_seconds_http->Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      handle_t0)
            .count());
  }
  QueueOutput(ctx, c, response);
  c.close_after_flush = true;
}

/// Drains as many complete requests out of c.inbuf as are buffered.
/// Leaves a partial request in place (tracked for the slow-loris sweep).
void ProcessInput(LoopContext& ctx, Connection& c) {
  while (!c.dead && !c.close_after_flush && !c.inbuf.empty() &&
         c.pending.size() < kMaxPipelinedRequests) {
    if (c.mode == Connection::Mode::kUnknown) {
      const uint8_t first = static_cast<uint8_t>(c.inbuf[0]);
      if (first == kFrameMagic) {
        c.mode = Connection::Mode::kBinary;
      } else if (first == '{') {
        c.mode = Connection::Mode::kJson;
      } else if (first == 'G' || first == 'H') {
        c.mode = Connection::Mode::kHttp;
      } else {
        ctx.im->protocol_errors.fetch_add(1, std::memory_order_relaxed);
        ctx.im->Close(c);
        return;
      }
    }
    switch (c.mode) {
      case Connection::Mode::kBinary: {
        const bool tracing = util::TraceRecorder::Enabled();
        const int64_t parse_t0 =
            tracing ? util::TraceRecorder::Instance().NowNs() : 0;
        size_t consumed = 0;
        RequestFrame req;
        std::string error;
        const ParseStatus ps = ParseRequestFrame(
            c.inbuf.data(), c.inbuf.size(), ctx.opts->max_request_bytes,
            &consumed, &req, &error);
        const int64_t parse_t1 =
            tracing ? util::TraceRecorder::Instance().NowNs() : 0;
        if (ps == ParseStatus::kNeedMore) return;
        if (ps == ParseStatus::kError) {
          // Oversize is recognizable from the header alone; everything in
          // this branch answers once, flushes, then closes.
          if (c.inbuf.size() >= kFrameHeaderBytes) {
            uint32_t body_len = 0;
            std::memcpy(&body_len, c.inbuf.data() + 2, sizeof(body_len));
            if (body_len > ctx.opts->max_request_bytes) {
              ctx.im->oversized_rejected.fetch_add(1,
                                                   std::memory_order_relaxed);
            }
          }
          ctx.im->protocol_errors.fetch_add(1, std::memory_order_relaxed);
          ctx.im->responses_error.fetch_add(1, std::memory_order_relaxed);
          std::string payload;
          AppendErrorResponse(0, util::Status::InvalidArgument(error),
                              &payload);
          QueueOutput(ctx, c, payload);
          c.close_after_flush = true;
          c.inbuf.clear();
          return;
        }
        c.inbuf.erase(0, consumed);
        DispatchBinary(ctx, c, std::move(req), parse_t0, parse_t1);
        break;
      }
      case Connection::Mode::kJson: {
        const size_t nl = c.inbuf.find('\n');
        if (nl == std::string::npos) {
          if (c.inbuf.size() > ctx.opts->max_request_bytes) {
            ctx.im->oversized_rejected.fetch_add(1, std::memory_order_relaxed);
            ctx.im->responses_error.fetch_add(1, std::memory_order_relaxed);
            QueueOutput(ctx, c,
                        JsonErrorResponse(util::Status::InvalidArgument(
                            "request line exceeds " +
                            std::to_string(ctx.opts->max_request_bytes) +
                            " bytes")) +
                            "\n");
            c.close_after_flush = true;
            c.inbuf.clear();
          }
          return;
        }
        std::string line = c.inbuf.substr(0, nl);
        c.inbuf.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) break;  // tolerate blank keep-alive lines
        DispatchJsonLine(ctx, c, line);
        break;
      }
      case Connection::Mode::kHttp: {
        size_t end = c.inbuf.find("\r\n\r\n");
        size_t skip = 4;
        if (end == std::string::npos) {
          end = c.inbuf.find("\n\n");
          skip = 2;
        }
        if (end == std::string::npos) {
          if (c.inbuf.size() > 8192) {
            ctx.im->protocol_errors.fetch_add(1, std::memory_order_relaxed);
            ctx.im->Close(c);
          }
          return;
        }
        const std::string head = c.inbuf.substr(0, end);
        c.inbuf.erase(0, end + skip);
        DispatchHttp(ctx, c, head);
        break;
      }
      case Connection::Mode::kUnknown:
        return;  // unreachable
    }
  }
}

void PollPendingQueries(LoopContext& ctx, Connection& c) {
  if (c.dead || c.pending.empty()) return;
  if (c.mode == Connection::Mode::kJson) {
    // JSON has no query index on the wire: responses go back in SUBMISSION
    // order, head-of-line.
    while (!c.dead && !c.pending.empty() && c.pending.front().Ready()) {
      EmitResult(ctx, c, c.pending.front());
      // EmitResult can shed the connection (bounded output buffer), and
      // Close clears c.pending — erasing after that is UB.
      if (c.dead) break;
      c.pending.erase(c.pending.begin());
    }
  } else {
    // Binary responses carry their index: stream each result the moment
    // the engine finalizes it, in COMPLETION order.
    for (auto it = c.pending.begin(); !c.dead && it != c.pending.end();) {
      if (it->Ready()) {
        EmitResult(ctx, c, *it);
        // A shed inside EmitResult clears c.pending and invalidates `it`.
        if (c.dead) break;
        it = c.pending.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void FlushOutput(LoopContext& ctx, Connection& c) {
  while (!c.dead && c.HasUnflushedOutput()) {
    const IoResult r = WriteSome(c.sock.fd(), c.outbuf.data() + c.out_off,
                                 c.outbuf.size() - c.out_off);
    if (r.event == IoEvent::kProgress) {
      c.out_off += r.bytes;
      c.last_write_progress = std::chrono::steady_clock::now();
      continue;
    }
    if (r.event == IoEvent::kWouldBlock) return;
    ctx.im->write_errors.fetch_add(1, std::memory_order_relaxed);
    ctx.im->Close(c);
    return;
  }
  if (c.dead) return;
  c.outbuf.clear();
  c.out_off = 0;
  if (c.close_after_flush) ctx.im->Close(c);
}

}  // namespace

void Server::Loop() {
  Impl& im = *impl_;
  LoopContext ctx{&im, slot_, registry_, &options_, this, false};
  std::chrono::steady_clock::time_point drain_started{};
  bool drain_entered = false;

  std::vector<struct pollfd> fds;
  std::vector<Connection*> fd_conns;

  while (!stop_.load(std::memory_order_acquire)) {
    ctx.draining = draining_.load(std::memory_order_acquire);
    if (ctx.draining && !drain_entered) {
      drain_entered = true;
      drain_started = std::chrono::steady_clock::now();
      im.listener.Close();  // stop accepting; pending SYNs get RST
    }

    // ---- build the poll set -------------------------------------------
    // Slot 0 is the wakeup, slot 1 the listener while it is open.
    fds.clear();
    fd_conns.clear();
    fds.push_back({im.wakeup->fd(), POLLIN, 0});
    fd_conns.push_back(nullptr);
    const bool listening = im.listener.valid();
    if (listening) {
      fds.push_back({im.listener.fd(), POLLIN, 0});
      fd_conns.push_back(nullptr);
    }
    for (Connection& c : im.connections) {
      short events = 0;
      // Backpressure: stop reading from a connection that already has a
      // full pipeline or an unconsumed oversized inbuf — TCP pushes back
      // on the sender instead of us buffering without bound.
      const bool paused =
          c.pending.size() >= kMaxPipelinedRequests ||
          c.inbuf.size() > options_.max_request_bytes + kReadChunk ||
          c.close_after_flush;
      if (!paused) events |= POLLIN;
      if (c.HasUnflushedOutput()) events |= POLLOUT;
      fds.push_back({c.sock.fd(), events, 0});
      fd_conns.push_back(&c);
    }
    ::poll(fds.data(), fds.size(), kSweepIntervalMs);
    const auto now = std::chrono::steady_clock::now();
    // Clear the wakeup before the pending futures are scanned below: a
    // query that completes during the scan writes it again, so the next
    // poll returns at once instead of that completion being lost.
    if ((fds[0].revents & POLLIN) != 0) im.wakeup->Clear();

    // ---- accept --------------------------------------------------------
    if (listening && (fds[1].revents & POLLIN) != 0) {
      const int64_t accept_t0 =
          im.server_trace != 0 ? util::TraceRecorder::Instance().NowNs() : 0;
      size_t accepted_count = 0;
      for (;;) {
        AcceptResult accepted = AcceptNonBlocking(im.listener.fd());
        if (accepted.event == IoEvent::kWouldBlock) break;
        if (accepted.event != IoEvent::kProgress) {
          im.accept_errors.fetch_add(1, std::memory_order_relaxed);
          // A persistent failure (EMFILE/ENFILE) does not dequeue the
          // pending connection; looping here would spin the event-loop
          // thread. Yield to the next poll round instead.
          break;
        }
        if (im.connections.size() >= options_.max_connections) {
          // Hard cap: close immediately (never queued, never half-served).
          im.connections_rejected_at_cap.fetch_add(1,
                                                   std::memory_order_relaxed);
          continue;  // Socket destructor closes it
        }
        im.connections_accepted.fetch_add(1, std::memory_order_relaxed);
        ++accepted_count;
        Connection c;
        c.sock = std::move(accepted.socket);
        c.last_activity = now;
        c.last_write_progress = now;
        im.connections.push_back(std::move(c));
      }
      if (im.server_trace != 0 && accepted_count > 0) {
        auto& rec = util::TraceRecorder::Instance();
        rec.RecordManualSpan("net.accept", im.server_trace, /*span_id=*/0,
                             /*parent_id=*/0, accept_t0, rec.NowNs(),
                             "connections", accepted_count);
      }
    }

    // ---- read / dispatch / respond / flush ------------------------------
    for (size_t i = 0; i < fds.size(); ++i) {
      Connection* cp = fd_conns[i];
      if (cp == nullptr || cp->dead) continue;
      Connection& c = *cp;
      if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) {
        im.read_errors.fetch_add(1, std::memory_order_relaxed);
        im.Close(c);
        continue;
      }
      if ((fds[i].revents & POLLIN) != 0 ||
          ((fds[i].revents & POLLHUP) != 0 && (fds[i].events & POLLIN) != 0)) {
        char buf[kReadChunk];
        for (;;) {
          const IoResult r = ReadSome(c.sock.fd(), buf, sizeof(buf));
          if (r.event == IoEvent::kProgress) {
            c.inbuf.append(buf, r.bytes);
            c.last_activity = now;
            if (c.inbuf.size() > options_.max_request_bytes + kReadChunk) {
              break;  // paused next round; let the parser reject it
            }
            continue;
          }
          if (r.event == IoEvent::kWouldBlock) break;
          if (r.event == IoEvent::kPeerClosed) {
            im.Close(c);  // cancels in-flight queries
          } else {
            im.read_errors.fetch_add(1, std::memory_order_relaxed);
            im.Close(c);
          }
          break;
        }
      } else if ((fds[i].revents & POLLHUP) != 0 && !c.HasUnflushedOutput()) {
        im.Close(c);
      }
    }

    for (Connection& c : im.connections) {
      if (c.dead) continue;
      ProcessInput(ctx, c);
      // Slow-loris tracking: a nonempty inbuf after processing is a
      // partial request (or unread pipelined overflow).
      if (!c.inbuf.empty() && !c.close_after_flush &&
          c.pending.size() < kMaxPipelinedRequests) {
        if (!c.has_incomplete) {
          c.has_incomplete = true;
          c.incomplete_since = now;
        }
      } else {
        c.has_incomplete = false;
      }
      PollPendingQueries(ctx, c);
      if (!c.dead && c.HasUnflushedOutput()) FlushOutput(ctx, c);
      if (!c.dead && c.outbuf.empty() && c.close_after_flush) im.Close(c);
    }

    // ---- deadline sweep --------------------------------------------------
    for (Connection& c : im.connections) {
      if (c.dead) continue;
      if (c.has_incomplete && now - c.incomplete_since >
                                  options_.read_deadline) {
        im.slow_loris_closes.fetch_add(1, std::memory_order_relaxed);
        im.Close(c);
        continue;
      }
      if (c.HasUnflushedOutput() &&
          now - c.last_write_progress > options_.write_deadline) {
        im.stalled_reader_sheds.fetch_add(1, std::memory_order_relaxed);
        im.Close(c);
        continue;
      }
      const bool quiescent = c.pending.empty() && !c.HasUnflushedOutput() &&
                             c.inbuf.empty();
      if (quiescent && ctx.draining) {
        // Nothing owed to this peer; a draining server closes it now.
        im.Close(c);
        continue;
      }
      if (quiescent && options_.idle_timeout.count() > 0 &&
          now - c.last_activity > options_.idle_timeout) {
        im.idle_closes.fetch_add(1, std::memory_order_relaxed);
        im.Close(c);
      }
    }

    im.connections.remove_if([](const Connection& c) { return c.dead; });
    if (im.open_connections != nullptr) {
      im.open_connections->Set(static_cast<double>(im.connections.size()));
    }

    if (ctx.draining) {
      bool busy = false;
      for (const Connection& c : im.connections) {
        if (!c.pending.empty() || c.HasUnflushedOutput()) {
          busy = true;
          break;
        }
      }
      if (!busy || now - drain_started >= options_.drain_deadline) break;
    }
  }

  // Teardown (hard stop, or drain finished / expired): cancel whatever is
  // still in flight and close everything.
  for (Connection& c : im.connections) im.Close(c);
  im.connections.clear();
  im.listener.Close();
  if (im.open_connections != nullptr) im.open_connections->Set(0.0);
}

}  // namespace koios::net
