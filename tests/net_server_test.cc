// koios_serverd's front-end, end to end over real loopback sockets
// (ISSUE 8): results through the wire must be bit-identical to an
// in-process serial KoiosSearcher, all three dialects (binary / JSON
// lines / HTTP) must answer on one listener, the robustness defenses
// (oversize, connection cap, slow-loris, mid-stream disconnect) must shed
// exactly one connection each, and graceful drain must finish in-flight
// work. Ports are always ephemeral (port 0) so parallel ctest is safe.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "koios/core/searcher.h"
#include "koios/net/client.h"
#include "koios/net/engine_slot.h"
#include "koios/net/protocol.h"
#include "koios/net/server.h"
#include "koios/net/socket.h"
#include "koios/serve/query_engine.h"
#include "koios/util/metric_registry.h"
#include "test_util.h"

namespace koios::net {
namespace {

using core::KoiosSearcher;
using core::ResultEntry;
using core::SearchParams;
using core::SearchResult;

struct ServerFixture {
  testing::RandomWorkload workload;
  std::unique_ptr<KoiosSearcher> serial;
  EngineSlot slot;
  util::MetricRegistry registry;
  std::unique_ptr<Server> server;

  std::vector<TokenId> QueryFor(size_t i) const {
    const auto tokens = workload.corpus.sets.Tokens(
        static_cast<SetId>((i * 13) % workload.corpus.sets.size()));
    return {tokens.begin(), tokens.end()};
  }
};

// Heap-allocated: the fixture is self-referential (engine and server
// borrow the workload, slot, and registry by address), so it must not move.
std::unique_ptr<ServerFixture> MakeServer(ServerOptions options = {},
                                          uint64_t seed = 12001,
                                          size_t engine_threads = 2,
                                          bool with_engine = true) {
  auto owner = std::make_unique<ServerFixture>();
  ServerFixture& f = *owner;
  f.workload = testing::MakeRandomWorkload(120, 500, 5, 20, seed);
  f.serial = std::make_unique<KoiosSearcher>(&f.workload.corpus.sets,
                                             f.workload.index.get());
  if (with_engine) {
    serve::EngineOptions engine_options;
    engine_options.num_threads = engine_threads;
    f.slot.Set(std::make_shared<serve::QueryEngine>(
        &f.workload.corpus.sets, f.workload.index.get(), engine_options));
  }
  options.port = 0;
  f.server = std::make_unique<Server>(&f.slot, &f.registry, options);
  EXPECT_TRUE(f.server->Start().ok());
  return owner;
}

void ExpectSameTopk(const std::vector<ResultEntry>& got,
                    const SearchResult& want, const char* label) {
  ASSERT_EQ(got.size(), want.topk.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].set, want.topk[i].set) << label << " entry " << i;
    // Bit-identical across the wire: the protocol memcpy's the doubles,
    // so == is the right comparison, not a tolerance.
    EXPECT_EQ(got[i].score, want.topk[i].score) << label << " entry " << i;
    EXPECT_EQ(got[i].exact, want.topk[i].exact) << label << " entry " << i;
  }
}

TEST(NetServerTest, BinarySearchMatchesSerialBitForBit) {
  std::unique_ptr<ServerFixture> owner = MakeServer();
  ServerFixture& f = *owner;
  auto client = BlockingClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value().Ping().ok());

  SearchParams params;
  const size_t ks[] = {1, 5, 10};
  for (size_t i = 0; i < 12; ++i) {
    const std::vector<TokenId> query = f.QueryFor(i);
    params.k = ks[i % 3];
    auto got = client.value().Search(query, static_cast<uint32_t>(params.k),
                                     params.alpha, 0);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameTopk(got.value(), f.serial->Search(query, params), "binary");
  }
  const ServerStats stats = f.server->stats();
  EXPECT_EQ(stats.responses_ok, 12u);  // ping is liveness, not a query
  EXPECT_EQ(stats.responses_error, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(NetServerTest, SearchManyStreamsOneFramePerQueryInCompletionOrder) {
  std::unique_ptr<ServerFixture> owner = MakeServer();
  ServerFixture& f = *owner;
  auto client = BlockingClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok());

  std::vector<std::vector<TokenId>> queries;
  for (size_t i = 0; i < 16; ++i) queries.push_back(f.QueryFor(i));

  std::vector<bool> seen(queries.size(), false);
  size_t frames = 0;
  util::Status status = client.value().SearchMany(
      queries, 5, 0.8, 0, [&](const ResponseFrame& frame) {
        ++frames;
        ASSERT_EQ(frame.code, WireCode::kOk)
            << ResponseToStatus(frame).ToString();
        ASSERT_LT(frame.query_index, queries.size());
        EXPECT_FALSE(seen[frame.query_index]) << "duplicate frame";
        seen[frame.query_index] = true;
        SearchParams params;
        params.k = 5;
        ExpectSameTopk(frame.results,
                       f.serial->Search(queries[frame.query_index], params),
                       "batch");
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(frames, queries.size());  // exactly one frame per query
}

TEST(NetServerTest, JsonLineModeAnswersInSubmissionOrder) {
  std::unique_ptr<ServerFixture> owner = MakeServer();
  ServerFixture& f = *owner;
  auto sock = ConnectTcp("127.0.0.1", f.server->port(),
                         std::chrono::milliseconds(2000));
  ASSERT_TRUE(sock.ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);

  std::string lines;
  for (size_t i = 0; i < 3; ++i) {
    lines += "{\"tokens\":[";
    const std::vector<TokenId> query = f.QueryFor(i);
    for (size_t t = 0; t < query.size(); ++t) {
      if (t > 0) lines += ',';
      lines += std::to_string(query[t]);
    }
    lines += "],\"k\":5}\n";
  }
  ASSERT_TRUE(WriteAll(sock.value().fd(), lines.data(), lines.size(), deadline)
                  .ok());

  std::string response;
  size_t newlines = 0;
  while (newlines < 3) {
    char c = 0;
    ASSERT_TRUE(ReadExact(sock.value().fd(), &c, 1, deadline).ok());
    response.push_back(c);
    if (c == '\n') ++newlines;
  }
  // Three ok lines, in submission order (JSON mode is head-of-line).
  size_t pos = 0;
  for (size_t i = 0; i < 3; ++i) {
    const size_t eol = response.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    const std::string line = response.substr(pos, eol - pos);
    EXPECT_EQ(line.find("{\"status\":\"ok\""), 0u) << line;
    SearchParams params;
    params.k = 5;
    const SearchResult want = f.serial->Search(f.QueryFor(i), params);
    if (!want.topk.empty()) {
      EXPECT_NE(
          line.find("\"set\":" + std::to_string(want.topk[0].set)),
          std::string::npos)
          << "line " << i << " should lead with the serial top-1: " << line;
    }
    pos = eol + 1;
  }

  // A malformed line gets a clean invalid_argument (strict parser), and
  // the connection survives for the next request.
  const std::string bad = "{\"tokens\":[1],\"aplha\":0.5}\n";
  ASSERT_TRUE(WriteAll(sock.value().fd(), bad.data(), bad.size(), deadline)
                  .ok());
  std::string error_line;
  for (;;) {
    char c = 0;
    ASSERT_TRUE(ReadExact(sock.value().fd(), &c, 1, deadline).ok());
    if (c == '\n') break;
    error_line.push_back(c);
  }
  EXPECT_NE(error_line.find("\"status\":\"invalid_argument\""),
            std::string::npos)
      << error_line;
  EXPECT_NE(error_line.find("aplha"), std::string::npos) << error_line;
}

// JSON responses carry no query index, so a client correlates them to its
// requests strictly by order. A malformed line PIPELINED behind a valid
// query must not have its (immediately-known) error jump ahead of the
// valid query's (engine-computed) response — the parse error waits its
// turn in the head-of-line queue.
TEST(NetServerTest, JsonParseErrorKeepsItsPlaceInTheResponseOrder) {
  std::unique_ptr<ServerFixture> owner = MakeServer();
  ServerFixture& f = *owner;
  auto sock = ConnectTcp("127.0.0.1", f.server->port(),
                         std::chrono::milliseconds(2000));
  ASSERT_TRUE(sock.ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);

  std::string valid = "{\"tokens\":[";
  const std::vector<TokenId> query = f.QueryFor(2);
  for (size_t t = 0; t < query.size(); ++t) {
    if (t > 0) valid += ',';
    valid += std::to_string(query[t]);
  }
  valid += "],\"k\":3}\n";
  // One write: valid, malformed, valid. Expected responses, in order:
  // ok, invalid_argument, ok.
  const std::string lines =
      valid + "{\"tokens\":[1],\"aplha\":0.5}\n" + valid;
  ASSERT_TRUE(WriteAll(sock.value().fd(), lines.data(), lines.size(), deadline)
                  .ok());

  std::vector<std::string> responses;
  std::string current;
  while (responses.size() < 3) {
    char c = 0;
    ASSERT_TRUE(ReadExact(sock.value().fd(), &c, 1, deadline).ok());
    if (c == '\n') {
      responses.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  EXPECT_EQ(responses[0].find("{\"status\":\"ok\""), 0u) << responses[0];
  EXPECT_NE(responses[1].find("\"status\":\"invalid_argument\""),
            std::string::npos)
      << responses[1];
  EXPECT_NE(responses[1].find("aplha"), std::string::npos) << responses[1];
  EXPECT_EQ(responses[2].find("{\"status\":\"ok\""), 0u) << responses[2];

  // The parse error counted as a protocol error + error response, but not
  // as a cancelled query, and the connection survived.
  const ServerStats stats = f.server->stats();
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.queries_cancelled_on_disconnect, 0u);
}

TEST(NetServerTest, HttpEndpointsAnswerOnTheSameListener) {
  std::unique_ptr<ServerFixture> owner = MakeServer();
  ServerFixture& f = *owner;
  int code = 0;
  auto health = HttpGet("127.0.0.1", f.server->port(), "/healthz", &code);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(code, 200);
  EXPECT_EQ(health.value(), "ok\n");

  auto ready = HttpGet("127.0.0.1", f.server->port(), "/readyz", &code);
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(code, 200);
  EXPECT_EQ(ready.value(), "ready\n");

  auto metrics = HttpGet("127.0.0.1", f.server->port(), "/metrics", &code);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(code, 200);
  EXPECT_NE(metrics.value().find("koios_server_connections_accepted_total"),
            std::string::npos);
  EXPECT_NE(metrics.value().find("koios_server_ready 1"), std::string::npos);

  auto missing = HttpGet("127.0.0.1", f.server->port(), "/nope", &code);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(code, 404);
}

TEST(NetServerTest, UnreadySlotShedsWithRetryHintAndReadyzSays503) {
  ServerOptions options;
  options.unavailable_retry_after_ms = 77;
  std::unique_ptr<ServerFixture> owner = MakeServer(options, 12002, 2, /*with_engine=*/false);
  ServerFixture& f = *owner;

  EXPECT_FALSE(f.server->ready());
  int code = 0;
  auto ready = HttpGet("127.0.0.1", f.server->port(), "/readyz", &code);
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(code, 503);
  auto health = HttpGet("127.0.0.1", f.server->port(), "/healthz", &code);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(code, 200);  // alive even though not ready

  auto client = BlockingClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok());
  auto result = client.value().Search({1, 2, 3}, 5, 0.8, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kUnavailable);
  ASSERT_TRUE(result.status().has_retry_after());
  EXPECT_EQ(result.status().retry_after_ms(), 77);

  // The readiness flip is zero-touch: install an engine, same listener
  // starts answering.
  serve::EngineOptions engine_options;
  engine_options.num_threads = 1;
  f.slot.Set(std::make_shared<serve::QueryEngine>(
      &f.workload.corpus.sets, f.workload.index.get(), engine_options));
  EXPECT_TRUE(f.server->ready());
  auto after = client.value().Search(f.QueryFor(0), 5, 0.8, 0);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(f.server->stats().unavailable_rejections, 1u);
}

TEST(NetServerTest, OversizedRequestIsRejectedFromTheHeader) {
  ServerOptions options;
  options.max_request_bytes = 1024;
  std::unique_ptr<ServerFixture> owner = MakeServer(options, 12003);
  ServerFixture& f = *owner;
  auto sock = ConnectTcp("127.0.0.1", f.server->port(),
                         std::chrono::milliseconds(2000));
  ASSERT_TRUE(sock.ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);

  // Header only: declares a 1 MiB body that is never sent. The server
  // must reject (and close) without waiting for the body.
  char header[kFrameHeaderBytes];
  header[0] = static_cast<char>(kFrameMagic);
  header[1] = static_cast<char>(Op::kSearch);
  const uint32_t body_len = 1u << 20;
  std::memcpy(header + 2, &body_len, sizeof body_len);
  ASSERT_TRUE(WriteAll(sock.value().fd(), header, sizeof header, deadline)
                  .ok());

  std::string raw;
  ASSERT_TRUE(ReadUntilClose(sock.value().fd(), &raw, 1 << 16, deadline).ok());
  ResponseFrame frame;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ParseResponseFrame(raw.data(), raw.size(), 1 << 16, &consumed,
                               &frame, &error),
            ParseStatus::kOk)
      << error;
  EXPECT_EQ(frame.code, WireCode::kInvalidArgument);
  EXPECT_NE(frame.message.find("exceeds"), std::string::npos);
  EXPECT_EQ(f.server->stats().oversized_rejected, 1u);
}

TEST(NetServerTest, ConnectionCapClosesExtrasImmediately) {
  ServerOptions options;
  options.max_connections = 2;
  std::unique_ptr<ServerFixture> owner = MakeServer(options, 12004);
  ServerFixture& f = *owner;

  auto a = BlockingClient::Connect("127.0.0.1", f.server->port());
  auto b = BlockingClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a.value().Ping().ok());  // both really accepted
  ASSERT_TRUE(b.value().Ping().ok());

  // The third TCP connect succeeds in the kernel (backlog), but the
  // server closes it at accept: its first round-trip must fail.
  auto c = BlockingClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c.value().Ping().ok());
  EXPECT_GE(f.server->stats().connections_rejected_at_cap, 1u);

  // Capacity frees up when a held connection goes away.
  a = util::Status::InvalidArgument("drop a");  // destroys client a
  for (int attempt = 0; attempt < 50; ++attempt) {
    auto d = BlockingClient::Connect("127.0.0.1", f.server->port());
    if (d.ok() && d.value().Ping().ok()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  FAIL() << "cap never released after closing a connection";
}

// Satellite 1: a client killed mid-stream must cost exactly its own
// connection — the server survives, its remaining queries cancel cleanly,
// and the next client gets exact answers.
TEST(NetServerTest, KilledClientMidStreamCancelsItsQueriesAndServerSurvives) {
  std::unique_ptr<ServerFixture> owner = MakeServer({}, 12005, /*engine_threads=*/1);
  ServerFixture& f = *owner;
  auto victim = BlockingClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(victim.ok());

  // A large pipelined batch on a 1-worker engine: most of it is still
  // queued when the client dies, and the finished frames the server keeps
  // writing hit a dead socket (the EPIPE path MSG_NOSIGNAL must absorb).
  RequestFrame frame;
  frame.op = Op::kSearchMany;
  frame.k = 5;
  frame.alpha = 0.8;
  for (size_t i = 0; i < 48; ++i) frame.queries.push_back(f.QueryFor(i));
  std::string wire;
  AppendRequestFrame(frame, &wire);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  ASSERT_TRUE(WriteAll(victim.value().fd(), wire.data(), wire.size(), deadline)
                  .ok());
  // Read ONE response frame so the stream is established, then vanish.
  char first[kFrameHeaderBytes];
  ASSERT_TRUE(ReadExact(victim.value().fd(), first, sizeof first, deadline)
                  .ok());
  victim = util::Status::InvalidArgument("killed");  // hard close mid-stream

  // The disconnect must surface as cancellations, not a dead server.
  bool cancelled = false;
  for (int attempt = 0; attempt < 200 && !cancelled; ++attempt) {
    cancelled = f.server->stats().queries_cancelled_on_disconnect > 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(cancelled) << "disconnect did not cancel in-flight queries";

  auto next = BlockingClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(next.ok()) << "server died after mid-stream disconnect";
  SearchParams params;
  params.k = 5;
  auto got = next.value().Search(f.QueryFor(3), 5, 0.8, 0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameTopk(got.value(), f.serial->Search(f.QueryFor(3), params),
                 "post-disconnect");
}

TEST(NetServerTest, SlowLorisConnectionIsClosedAtTheReadDeadline) {
  ServerOptions options;
  options.read_deadline = std::chrono::milliseconds(150);
  std::unique_ptr<ServerFixture> owner = MakeServer(options, 12006);
  ServerFixture& f = *owner;
  auto sock = ConnectTcp("127.0.0.1", f.server->port(),
                         std::chrono::milliseconds(2000));
  ASSERT_TRUE(sock.ok());

  // Three header bytes, then silence: an incomplete request held open.
  const char partial[3] = {static_cast<char>(kFrameMagic),
                           static_cast<char>(Op::kSearch), 0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  ASSERT_TRUE(WriteAll(sock.value().fd(), partial, sizeof partial, deadline)
                  .ok());

  std::string raw;  // the server must hang up on us, well before 5s
  EXPECT_TRUE(ReadUntilClose(sock.value().fd(), &raw, 4096, deadline).ok());
  EXPECT_EQ(f.server->stats().slow_loris_closes, 1u);

  // And the defense is per-connection: the server still answers.
  auto client = BlockingClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value().Ping().ok());
}

// Regression: a stalled-reader shed fired from INSIDE EmitResult (the
// bounded output buffer) calls Close, which clears c.pending while
// PollPendingQueries is still iterating it. The erase that used to follow
// unconditionally ran on the cleared vector (JSON) or through an
// invalidated iterator (binary). With a cap smaller than one response,
// the very first pipelined result trips the path; the server must shed
// the one connection, not corrupt its loop.
TEST(NetServerTest, ShedInsidePipelinedEmitCostsOnlyThatConnection) {
  ServerOptions options;
  options.max_output_buffer_bytes = 16;  // smaller than any query response
  std::unique_ptr<ServerFixture> owner =
      MakeServer(options, 12008, /*engine_threads=*/1);
  ServerFixture& f = *owner;

  auto victim = ConnectTcp("127.0.0.1", f.server->port(),
                           std::chrono::milliseconds(2000));
  ASSERT_TRUE(victim.ok());
  RequestFrame frame;
  frame.op = Op::kSearchMany;
  frame.k = 5;
  frame.alpha = 0.8;
  for (size_t i = 0; i < 8; ++i) frame.queries.push_back(f.QueryFor(i));
  std::string wire;
  AppendRequestFrame(frame, &wire);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  ASSERT_TRUE(WriteAll(victim.value().fd(), wire.data(), wire.size(),
                       deadline)
                  .ok());

  bool shed = false;
  for (int attempt = 0; attempt < 500 && !shed; ++attempt) {
    shed = f.server->stats().stalled_reader_sheds > 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(shed) << "tiny output bound never shed the batch connection";

  // The loop thread survived: pings still answer (a ping response fits
  // under the 16-byte bound; query responses would not).
  auto next = BlockingClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(next.ok()) << "server died shedding a stalled reader";
  EXPECT_TRUE(next.value().Ping().ok());

  // And the same JSON-mode path: pipeline two lines, first emit sheds.
  const uint64_t sheds_before = f.server->stats().stalled_reader_sheds;
  auto json_victim = ConnectTcp("127.0.0.1", f.server->port(),
                                std::chrono::milliseconds(2000));
  ASSERT_TRUE(json_victim.ok());
  const std::string two_lines =
      "{\"tokens\":[1,2,3],\"k\":3}\n{\"tokens\":[4,5,6],\"k\":3}\n";
  ASSERT_TRUE(WriteAll(json_victim.value().fd(), two_lines.data(),
                       two_lines.size(), deadline)
                  .ok());
  shed = false;
  for (int attempt = 0; attempt < 500 && !shed; ++attempt) {
    shed = f.server->stats().stalled_reader_sheds > sheds_before;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(shed) << "JSON pipelined emit never shed";
  auto after = BlockingClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(after.ok()) << "server died on the JSON shed path";
  EXPECT_TRUE(after.value().Ping().ok());
}

// Regression: JSON clients correlate responses strictly by line order, so
// an unavailable rejection (slot cleared / draining) raised while earlier
// pipelined queries are still in flight must wait its turn in the
// head-of-line queue — it used to be written immediately, jumping ahead
// and misattributing every response after it.
TEST(NetServerTest, JsonUnavailableRejectionKeepsItsPlaceInResponseOrder) {
  std::unique_ptr<ServerFixture> owner =
      MakeServer({}, 12009, /*engine_threads=*/1);
  ServerFixture& f = *owner;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);

  // Occupy the single worker with a long pipelined batch from another
  // connection so the JSON query below stays pending for a while.
  auto busy = ConnectTcp("127.0.0.1", f.server->port(),
                         std::chrono::milliseconds(2000));
  ASSERT_TRUE(busy.ok());
  RequestFrame frame;
  frame.op = Op::kSearchMany;
  frame.k = 5;
  frame.alpha = 0.8;
  for (size_t i = 0; i < 100; ++i) frame.queries.push_back(f.QueryFor(i));
  std::string wire;
  AppendRequestFrame(frame, &wire);
  ASSERT_TRUE(WriteAll(busy.value().fd(), wire.data(), wire.size(), deadline)
                  .ok());

  auto sock = ConnectTcp("127.0.0.1", f.server->port(),
                         std::chrono::milliseconds(2000));
  ASSERT_TRUE(sock.ok());
  std::string valid = "{\"tokens\":[";
  const std::vector<TokenId> query = f.QueryFor(1);
  for (size_t t = 0; t < query.size(); ++t) {
    if (t > 0) valid += ',';
    valid += std::to_string(query[t]);
  }
  valid += "],\"k\":3}\n";
  ASSERT_TRUE(WriteAll(sock.value().fd(), valid.data(), valid.size(),
                       deadline)
                  .ok());
  // Wait until the valid line reached the engine: the batch's 100 queries
  // plus this one. The server counts a request before it parses the line
  // and reads the slot, so only the engine's count says the query got
  // past the slot.
  std::shared_ptr<serve::QueryEngine> held = f.slot.Get();
  for (int attempt = 0; attempt < 500; ++attempt) {
    if (held->counters().submitted >= 101) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(held->counters().submitted, 101u);

  // Yank the slot (keeping the engine alive so in-flight work finishes):
  // the next line must be rejected kUnavailable — but BEHIND the pending
  // query, not ahead of it.
  f.slot.Set(nullptr);
  const std::string second = "{\"tokens\":[7,8,9],\"k\":3}\n";
  ASSERT_TRUE(WriteAll(sock.value().fd(), second.data(), second.size(),
                       deadline)
                  .ok());

  std::vector<std::string> responses;
  std::string current;
  while (responses.size() < 2) {
    char c = 0;
    ASSERT_TRUE(ReadExact(sock.value().fd(), &c, 1, deadline).ok());
    if (c == '\n') {
      responses.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  // First line answers the first query (whatever the engine said, it is
  // NOT the slot-cleared rejection); the rejection is second, with its
  // retry hint intact.
  EXPECT_EQ(responses[0].find("no snapshot live yet"), std::string::npos)
      << responses[0];
  EXPECT_NE(responses[1].find("\"status\":\"unavailable\""),
            std::string::npos)
      << responses[1];
  EXPECT_NE(responses[1].find("no snapshot live yet"), std::string::npos)
      << responses[1];
  EXPECT_NE(responses[1].find("retry_after_ms"), std::string::npos)
      << responses[1];
  EXPECT_GE(f.server->stats().unavailable_rejections, 1u);
}

// A search that throws (here: a similarity backend whose sessions cannot
// be opened) reaches the loop through the engine's future. It must come
// back as an Internal error for that one query, in both dialects, instead
// of escaping the loop thread and terminating the daemon.
TEST(NetServerTest, QueryThatThrowsAnswersInternalAndTheConnectionSurvives) {
  auto workload = testing::MakeRandomWorkload(60, 300, 5, 15, 12010);
  testing::ThrowingIndex index;
  EngineSlot slot;
  serve::EngineOptions engine_options;
  engine_options.num_threads = 1;
  slot.Set(std::make_shared<serve::QueryEngine>(&workload.corpus.sets, &index,
                                                engine_options));
  Server server(&slot, nullptr);
  ASSERT_TRUE(server.Start().ok());
  const auto tokens = workload.corpus.sets.Tokens(4);
  const std::vector<TokenId> query(tokens.begin(), tokens.end());

  auto client = BlockingClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto got = client.value().Search(query, 5, 0.8, 0);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kInternal);
  // The client reports transport errors as kInternal too; the message
  // shows the server answered.
  EXPECT_NE(got.status().message().find(testing::ThrowingIndex::kMessage),
            std::string::npos)
      << got.status().ToString();
  EXPECT_TRUE(client.value().Ping().ok());

  auto sock = ConnectTcp("127.0.0.1", server.port(),
                         std::chrono::milliseconds(2000));
  ASSERT_TRUE(sock.ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::string line = "{\"tokens\":[";
  for (size_t t = 0; t < query.size(); ++t) {
    if (t > 0) line += ',';
    line += std::to_string(query[t]);
  }
  line += "],\"k\":5}\n";
  for (int round = 0; round < 2; ++round) {  // the connection survives
    ASSERT_TRUE(
        WriteAll(sock.value().fd(), line.data(), line.size(), deadline).ok());
    std::string response;
    for (;;) {
      char c = 0;
      ASSERT_TRUE(ReadExact(sock.value().fd(), &c, 1, deadline).ok());
      if (c == '\n') break;
      response.push_back(c);
    }
    EXPECT_NE(response.find("\"status\":\"internal\""), std::string::npos)
        << response;
    EXPECT_NE(response.find(testing::ThrowingIndex::kMessage),
              std::string::npos)
        << response;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.responses_error, 3u);
  EXPECT_EQ(stats.responses_ok, 0u);
}

// A finished query wakes the loop at once: a client's round trip is the
// engine's time plus the wire, not plus a poll tick.
TEST(NetServerTest, CompletedQueryWakesTheLoop) {
  std::unique_ptr<ServerFixture> owner =
      MakeServer({}, 12012, /*engine_threads=*/1);
  ServerFixture& f = *owner;
  auto client = BlockingClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().Ping().ok());

  std::vector<double> round_trip_ms;
  for (size_t i = 0; i < 100; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto got = client.value().Search(f.QueryFor(i), 5, 0.8, 0);
    round_trip_ms.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
  }
  std::nth_element(round_trip_ms.begin(),
                   round_trip_ms.begin() + round_trip_ms.size() / 2,
                   round_trip_ms.end());
  const double median_ms = round_trip_ms[round_trip_ms.size() / 2];
  const double engine_ms = f.slot.Get()->latency().Percentile(50) * 1e3;
  EXPECT_LT(median_ms - engine_ms, 1.5)
      << "median round trip " << median_ms << " ms, engine p50 " << engine_ms
      << " ms";
}

TEST(NetServerTest, DrainFinishesInFlightWorkThenStopsListening) {
  std::unique_ptr<ServerFixture> owner = MakeServer({}, 12007, /*engine_threads=*/1);
  ServerFixture& f = *owner;
  auto client = BlockingClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok());

  std::vector<std::vector<TokenId>> queries;
  for (size_t i = 0; i < 24; ++i) queries.push_back(f.QueryFor(i));

  // Reader thread consumes the batch while the main thread drains.
  size_t ok_frames = 0;
  util::Status batch_status = util::Status::OK();
  std::thread reader([&] {
    batch_status = client.value().SearchMany(
        queries, 5, 0.8, 0, [&](const ResponseFrame& frame) {
          if (frame.code == WireCode::kOk) ++ok_frames;
        });
  });
  // Give the batch a moment to be admitted, then drain under load.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  f.server->Drain();
  reader.join();

  // Everything admitted before the drain completed and flushed.
  ASSERT_TRUE(batch_status.ok()) << batch_status.ToString();
  EXPECT_EQ(ok_frames, queries.size());
  EXPECT_TRUE(f.server->draining());
  EXPECT_FALSE(f.server->ready());

  // Drained means gone: the listener no longer accepts.
  auto late = ConnectTcp("127.0.0.1", f.server->port(),
                         std::chrono::milliseconds(500));
  if (late.ok()) {
    char byte = 0;
    const auto probe =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    EXPECT_FALSE(ReadExact(late.value().fd(), &byte, 1, probe).ok());
  }
}

}  // namespace
}  // namespace koios::net
