// Chaos harness for the NETWORK edge (ISSUE 8): where bench_serve_chaos
// hammers the engine in-process, this one drives REAL loopback TCP clients
// through the daemon-shaped stack — EngineSlot + RepositoryWatcher +
// Server, the exact objects koios_serverd wires together — and gates HARD
// on the wire-level robustness story:
//
//  * baseline  — closed-loop wire QPS, every answer bit-identical to an
//                in-process serial searcher over the same repository.
//  * chaos     — the same stream while (a) net.read / net.write faults
//                randomly kill connections under live traffic (clients
//                reconnect and retry), (b) a slow-loris attacker holds
//                half-written requests until the read deadline sheds it,
//                (c) an abandoning client sends big batches and hard-closes
//                after one frame (its queries must be cancelled, not
//                leaked), and (d) a reload attacker clobbers the watched
//                repository file IN PLACE with corrupt bytes (every push
//                must be rejected while the old snapshot keeps answering)
//                with one byte-identical valid push mid-window (must swap
//                without moving a result).
//  * recovery  — disarm everything, rerun the stream: bit-identical again,
//                goodput >= 90% of baseline (exit 3 if not — timing,
//                tolerated on busy CI runners like the other benches).
//
// After recovery, two more acts on the same stack:
//  * overload  — a second tiny-queue server + 20ms-late dispatches: every
//                wire-level shed must be a clean kResourceExhausted /
//                kDeadlineExceeded CARRYING retry_after_ms, successes stay
//                exact.
//  * drain     — a 48-query kSearchMany is in flight when Drain() fires
//                (the daemon's SIGTERM path minus the signal handler —
//                the process-level SIGTERM → exit-0 run lives in
//                tools/serverd_smoke.sh): every in-flight query must
//                complete bit-identically, the reader must see all frames,
//                and new connections must be refused afterwards.
//
// Hard invariants (exit 2, never tolerated): no crash, zero mismatches in
// ANY phase, zero failures in baseline/recovery, corrupt pushes all
// rejected, the valid push swapped, sheds all hint-carrying, drain
// completed every in-flight query, /metrics scrapes non-trivially.
//
// Usage: bench_serverd_chaos [--json out.json] [--queries N]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "koios/core/searcher.h"
#include "koios/data/corpus.h"
#include "koios/data/query_benchmark.h"
#include "koios/embedding/synthetic_model.h"
#include "koios/io/repository_v4.h"
#include "koios/net/client.h"
#include "koios/net/engine_slot.h"
#include "koios/net/protocol.h"
#include "koios/net/repository_watcher.h"
#include "koios/net/server.h"
#include "koios/net/socket.h"
#include "koios/serve/engine_metrics.h"
#include "koios/serve/query_engine.h"
#include "koios/serve/snapshot.h"
#include "koios/util/fault_injector.h"
#include "koios/util/metric_registry.h"
#include "koios/util/rng.h"
#include "koios/util/timer.h"

namespace koios {
namespace {

constexpr double kRecoveryBar = 0.9;  // recovery QPS >= 0.9x baseline
constexpr char kHost[] = "127.0.0.1";

struct Scenario {
  std::vector<TokenId> tokens;
  uint32_t k = 10;
  double alpha = 0.8;
};

bool SameTopk(const std::vector<core::ResultEntry>& got,
              const std::vector<core::ResultEntry>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].set != want[i].set || got[i].score != want[i].score ||
        got[i].exact != want[i].exact) {
      return false;
    }
  }
  return true;
}

struct LoopOutcome {
  double sec = 0.0;
  double qps = 0.0;
  size_t mismatches = 0;
  size_t abandoned = 0;          // gave up after max attempts
  size_t transport_reconnects = 0;  // connection died; client reconnected
  size_t backoff_retries = 0;    // server said retry_after_ms; we honored it
};

/// Closed loop over REAL sockets: `clients` threads each own a
/// BlockingClient and drive their slice of the stream synchronously. A
/// response carrying retry_after_ms is honored (sleep + retry on the same
/// connection); a transport error (connection shed by a fault or deadline)
/// reconnects and retries. A query still failing after `max_attempts` is
/// counted abandoned — tolerated only in the chaos window.
LoopOutcome RunWireLoop(uint16_t port, const std::vector<Scenario>& scenarios,
                        const std::vector<std::vector<core::ResultEntry>>& ref,
                        const std::vector<size_t>& stream, size_t clients,
                        int max_attempts) {
  std::atomic<size_t> mismatches{0}, abandoned{0}, reconnects{0}, backoffs{0};
  util::WallTimer timer;
  std::vector<std::thread> workers;
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      net::ClientOptions copts;
      copts.io_timeout = std::chrono::milliseconds(10'000);
      auto conn = net::BlockingClient::Connect(kHost, port, copts);
      for (size_t i = c; i < stream.size(); i += clients) {
        const Scenario& s = scenarios[stream[i]];
        bool answered = false;
        for (int attempt = 0; attempt < max_attempts && !answered; ++attempt) {
          if (!conn.ok()) {
            conn = net::BlockingClient::Connect(kHost, port, copts);
            if (!conn.ok()) {
              std::this_thread::sleep_for(std::chrono::milliseconds(10));
              continue;
            }
          }
          auto r = conn.value().Search(s.tokens, s.k, s.alpha, /*deadline=*/0);
          if (r.ok()) {
            if (!SameTopk(r.value(), ref[stream[i]])) ++mismatches;
            answered = true;
          } else if (r.status().has_retry_after()) {
            ++backoffs;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(r.status().retry_after_ms()));
          } else {
            // Transport-level shed (injected fault, killed connection):
            // the connection is suspect; replace it.
            ++reconnects;
            conn = util::Status::Unavailable("reconnect");
          }
        }
        if (!answered) ++abandoned;
      }
    });
  }
  for (auto& w : workers) w.join();
  LoopOutcome out;
  out.sec = timer.ElapsedSeconds();
  out.qps = static_cast<double>(stream.size()) / out.sec;
  out.mismatches = mismatches.load();
  out.abandoned = abandoned.load();
  out.transport_reconnects = reconnects.load();
  out.backoff_retries = backoffs.load();
  return out;
}

/// In-place clobber of `path` with the bytes of `src` — deliberately the
/// SLOPPY push (same inode, like `cp`), the case the watcher's spool copy
/// makes survivable. SaveRepositoryV4 is rename-atomic so it cannot
/// reproduce this.
bool ClobberInPlace(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

int Run(size_t total_queries, const std::string& json_path) {
  // ---- fixture: repository file + corrupt twin bytes --------------------
  data::CorpusSpec spec;
  spec.name = "serverd-chaos";
  spec.num_sets = 1500;
  spec.vocab_size = 2200;
  spec.element_skew = 0.7;
  spec.size_distribution = data::SizeDistribution::kNormal;
  spec.min_set_size = 6;
  spec.max_set_size = 34;
  spec.avg_set_size = 15.0;
  spec.size_stddev = 6.0;
  spec.seed = 20260808;
  util::WallTimer setup_timer;
  data::Corpus corpus = data::GenerateCorpus(spec);

  embedding::SyntheticModelSpec model_spec;
  model_spec.vocab_size = spec.vocab_size;
  model_spec.dim = 32;
  model_spec.avg_cluster_size = 12.0;
  model_spec.noise_sigma = 0.38;
  model_spec.coverage = 0.92;
  model_spec.seed = spec.seed + 1;
  embedding::SyntheticEmbeddingModel model(model_spec);

  text::Dictionary dict;
  for (size_t t = 0; t < spec.vocab_size; ++t) {
    dict.Intern("tok" + std::to_string(t));
  }
  const std::string dir = std::filesystem::temp_directory_path().string();
  const std::string repo_path = dir + "/koios_serverd_chaos_repo.bin";
  if (auto s = io::SaveRepositoryV4(dict, corpus.sets, &model.store(),
                                    repo_path);
      !s.ok()) {
    std::fprintf(stderr, "ERROR: save failed: %s\n", s.ToString().c_str());
    return 2;
  }
  const std::string good_bytes = ReadFileBytes(repo_path);
  std::string corrupt_bytes = good_bytes;
  corrupt_bytes[corrupt_bytes.size() / 2] =
      static_cast<char>(corrupt_bytes[corrupt_bytes.size() / 2] ^ 0x10);

  // ---- serial reference (in-process, no network) ------------------------
  auto loaded = serve::Snapshot::Load(repo_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "ERROR: snapshot load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 2;
  }
  std::shared_ptr<const serve::Snapshot> snapshot = loaded.value();
  core::KoiosSearcher serial(&snapshot->sets(), snapshot->index());

  const uint32_t ks[] = {1, 5, 10};
  const double alphas[] = {0.7, 0.8};
  util::Rng rng(424248);
  const auto sampled = data::SampleQueriesUniform(corpus, 36, &rng);
  std::vector<Scenario> scenarios;
  std::vector<std::vector<core::ResultEntry>> reference;
  for (size_t i = 0; i < sampled.size(); ++i) {
    Scenario s;
    s.tokens = sampled[i].tokens;
    s.k = ks[i % 3];
    s.alpha = alphas[i % 2];
    core::SearchParams params;  // exactly what server.cc builds from a frame
    params.k = s.k;
    params.alpha = s.alpha;
    reference.push_back(serial.Search(s.tokens, params).topk);
    scenarios.push_back(std::move(s));
  }
  // The drain batch queries every scenario at a single (k=10, alpha=0.8).
  // ALL references are computed up front: the serial snapshot mmaps
  // repo_path DIRECTLY (no spool copy — it is not behind the watcher), so
  // once the chaos window's in-place corrupt pushes start, its pages are
  // unreliable until the window restores the original bytes. The serving
  // stack is immune to exactly this by design; the bench's reference is
  // not, which is rather the point of the feature.
  std::vector<std::vector<core::ResultEntry>> drain_reference;
  for (const Scenario& s : scenarios) {
    core::SearchParams params;
    params.k = 10;
    params.alpha = 0.8;
    drain_reference.push_back(serial.Search(s.tokens, params).topk);
  }
  std::vector<size_t> stream(total_queries);
  for (size_t i = 0; i < stream.size(); ++i) stream[i] = i % scenarios.size();

  // ---- the daemon-shaped stack ------------------------------------------
  util::MetricRegistry registry;
  net::EngineSlot slot;
  serve::RegisterEngineMetrics(
      &registry, [&slot]() -> std::shared_ptr<const serve::QueryEngine> {
        return slot.Get();
      });
  net::WatcherOptions wopts;
  wopts.engine.num_threads = 4;
  wopts.engine.max_queue = stream.size() + 64;
  net::RepositoryWatcher watcher(repo_path, &slot, &registry, wopts);
  // Polls are driven by hand (deterministic), not by the watcher thread.
  if (auto s = watcher.PollOnce(); !s.ok()) {
    std::fprintf(stderr, "ERROR: initial load failed: %s\n",
                 s.ToString().c_str());
    return 2;
  }
  net::ServerOptions sopts;
  sopts.port = 0;
  // Short enough that the slow-loris attacker is shed inside the chaos
  // window; long enough that a real client never trips it.
  sopts.read_deadline = std::chrono::milliseconds(400);
  net::Server server(&slot, &registry, sopts);
  if (auto s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "ERROR: server start failed: %s\n",
                 s.ToString().c_str());
    return 2;
  }
  const uint16_t port = server.port();
  std::printf("[setup] %zu sets, %zu vocab, serving on :%u, %.1fs\n",
              corpus.NumSets(), corpus.vocabulary.size(), port,
              setup_timer.ElapsedSeconds());

  // ---- phase 1: baseline ------------------------------------------------
  const LoopOutcome baseline =
      RunWireLoop(port, scenarios, reference, stream, 4, /*max_attempts=*/3);

  // ---- phase 2: chaos ---------------------------------------------------
  LoopOutcome chaos;
  size_t corrupt_pushes = 0, corrupt_rejected = 0;
  size_t valid_pushes = 0, valid_swapped = 0;
  size_t loris_closed = 0, batches_abandoned = 0;
  {
    util::FaultSpec readf;
    readf.fail_probability = 0.05;
    readf.seed = 811;
    util::ScopedFault read_fault("net.read", readf);
    util::FaultSpec writef;
    writef.fail_probability = 0.05;
    writef.seed = 812;
    util::ScopedFault write_fault("net.write", writef);

    std::atomic<bool> stop{false};

    // (d) reload attacker: corrupt in-place pushes, one valid push.
    std::thread reloader([&] {
      size_t round = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const bool valid = (++round == 3);
        if (!ClobberInPlace(repo_path, valid ? good_bytes : corrupt_bytes)) {
          continue;
        }
        // Debounce wants the same fingerprint on two consecutive polls;
        // poll until the change either lands or is rejected (bounded).
        const net::WatcherStats before = watcher.stats();
        for (int p = 0; p < 4; ++p) {
          watcher.PollOnce();
          const net::WatcherStats now = watcher.stats();
          if (now.swaps_completed != before.swaps_completed ||
              now.swap_failures != before.swap_failures) {
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        const net::WatcherStats after = watcher.stats();
        if (valid) {
          ++valid_pushes;
          if (after.swaps_completed > before.swaps_completed) ++valid_swapped;
        } else {
          ++corrupt_pushes;
          if (after.swap_failures > before.swap_failures &&
              after.swaps_completed == before.swaps_completed) {
            ++corrupt_rejected;
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });

    // (b) slow-loris attacker: half a header, then silence until shed.
    std::thread loris([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto sock = net::ConnectTcp(kHost, port,
                                    std::chrono::milliseconds(1'000));
        if (!sock.ok()) continue;
        const char half[3] = {0x01, 0x02, 0x00};
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        net::WriteAll(sock.value().fd(), half, sizeof(half), deadline);
        std::string sink;
        // The server closes us at the read deadline; observe the hangup.
        net::ReadUntilClose(sock.value().fd(), &sink, 64, deadline);
        ++loris_closed;
      }
    });

    // (c) abandoning client: a 16-query batch, one frame read, hard close.
    std::thread abandoner([&] {
      std::string req;
      {
        net::RequestFrame f;
        f.op = net::Op::kSearchMany;
        f.k = 10;
        f.alpha = 0.8;
        for (size_t q = 0; q < 16; ++q) {
          f.queries.push_back(scenarios[q % scenarios.size()].tokens);
        }
        net::AppendRequestFrame(f, &req);
      }
      while (!stop.load(std::memory_order_relaxed)) {
        auto sock = net::ConnectTcp(kHost, port,
                                    std::chrono::milliseconds(1'000));
        if (!sock.ok()) continue;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        if (net::WriteAll(sock.value().fd(), req.data(), req.size(), deadline)
                .ok()) {
          char head[net::kFrameHeaderBytes];
          net::ReadExact(sock.value().fd(), head, sizeof(head), deadline);
        }
        ++batches_abandoned;  // destructor hard-closes mid-stream
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });

    chaos = RunWireLoop(port, scenarios, reference, stream, 4,
                        /*max_attempts=*/6);
    stop.store(true, std::memory_order_relaxed);
    reloader.join();
    loris.join();
    abandoner.join();
    // The window usually ends with corrupt bytes on disk (the reloader's
    // last push). Restore the original bytes so the serial snapshot's
    // aliased mmap is sane again for the acts below.
    ClobberInPlace(repo_path, good_bytes);
  }

  // ---- phase 3: recovery ------------------------------------------------
  const LoopOutcome recovery =
      RunWireLoop(port, scenarios, reference, stream, 4, /*max_attempts=*/3);

  // ---- metrics scrape (under a served stack, before drain) --------------
  int http_status = 0;
  auto metrics = net::HttpGet(kHost, port, "/metrics", &http_status);
  const bool metrics_ok =
      metrics.ok() && http_status == 200 &&
      metrics.value().find("koios_server_responses_ok_total") !=
          std::string::npos &&
      metrics.value().find("koios_queries_completed_total") !=
          std::string::npos;

  // ---- overload burst (separate tiny-queue server) ----------------------
  size_t burst_ok = 0, burst_shed = 0;
  size_t burst_bad_status = 0, burst_missing_hint = 0, burst_mismatch = 0;
  {
    util::FaultSpec slow;
    slow.latency = std::chrono::milliseconds(20);
    util::ScopedFault dispatch_fault("threadpool.dispatch", slow);
    serve::EngineOptions small;
    small.num_threads = 2;
    small.max_queue = 2;
    net::EngineSlot small_slot;
    small_slot.Set(std::make_shared<serve::QueryEngine>(snapshot, small));
    net::Server small_server(&small_slot, nullptr, net::ServerOptions{});
    if (auto s = small_server.Start(); !s.ok()) {
      std::fprintf(stderr, "ERROR: overload server start failed: %s\n",
                   s.ToString().c_str());
      return 2;
    }
    std::atomic<size_t> ok{0}, shed{0}, bad{0}, nohint{0}, mism{0};
    std::vector<std::thread> blasters;
    for (size_t c = 0; c < 8; ++c) {
      blasters.emplace_back([&, c] {
        auto conn = net::BlockingClient::Connect(kHost, small_server.port());
        if (!conn.ok()) return;
        for (size_t i = 0; i < 8; ++i) {
          const size_t si = (c * 8 + i) % scenarios.size();
          const Scenario& s = scenarios[si];
          auto r = conn.value().Search(s.tokens, s.k, s.alpha,
                                       /*deadline_ms=*/400);
          if (r.ok()) {
            ++ok;
            if (!SameTopk(r.value(), reference[si])) ++mism;
            continue;
          }
          ++shed;
          const util::StatusCode code = r.status().code();
          if (code != util::StatusCode::kResourceExhausted &&
              code != util::StatusCode::kDeadlineExceeded) {
            ++bad;
          }
          if (!r.status().has_retry_after()) ++nohint;
        }
      });
    }
    for (auto& b : blasters) b.join();
    burst_ok = ok.load();
    burst_shed = shed.load();
    burst_bad_status = bad.load();
    burst_missing_hint = nohint.load();
    burst_mismatch = mism.load();
    small_server.Stop();
  }

  // ---- drain under load -------------------------------------------------
  // A 48-query batch is mid-flight when Drain() fires; every query must
  // complete bit-identically and the listener must refuse new connections
  // afterwards. This is the daemon's SIGTERM path without the signal (the
  // process-level run is tools/serverd_smoke.sh's job).
  size_t drain_frames_ok = 0, drain_frames_bad = 0;
  bool drain_refused_after = false;
  {
    constexpr size_t kDrainBatch = 48;
    auto conn = net::BlockingClient::Connect(kHost, port);
    if (!conn.ok()) {
      std::fprintf(stderr, "ERROR: drain client connect failed\n");
      return 2;
    }
    std::vector<std::vector<TokenId>> queries;
    for (size_t q = 0; q < kDrainBatch; ++q) {
      queries.push_back(scenarios[q % scenarios.size()].tokens);
    }
    std::thread reader([&] {
      conn.value().SearchMany(
          queries, 10, 0.8, /*deadline_ms=*/0,
          [&](const net::ResponseFrame& frame) {
            if (frame.code == net::WireCode::kOk &&
                SameTopk(frame.results,
                         drain_reference[frame.query_index %
                                         scenarios.size()])) {
              ++drain_frames_ok;
            } else {
              ++drain_frames_bad;
              std::fprintf(stderr,
                           "drain frame %u bad: code=%s nresults=%zu msg=%s\n",
                           frame.query_index,
                           net::WireCodeName(frame.code).c_str(),
                           frame.results.size(), frame.message.c_str());
            }
          });
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server.Drain();
    reader.join();
    auto probe = net::BlockingClient::Connect(
        kHost, port, {.connect_timeout = std::chrono::milliseconds(250)});
    drain_refused_after = !probe.ok() || !probe.value().Ping().ok();
  }

  // ---- report -----------------------------------------------------------
  const double chaos_ratio = chaos.qps / baseline.qps;
  const double recovery_ratio = recovery.qps / baseline.qps;
  std::printf("\n=== serverd chaos: %zu queries/phase over loopback TCP ===\n",
              stream.size());
  std::printf("%-10s | %9s | %9s | %10s | %9s | %10s | %8s\n", "phase", "QPS",
              "vs base", "mismatches", "abandoned", "reconnects", "backoffs");
  std::printf("%s\n", std::string(82, '-').c_str());
  std::printf("%-10s | %9.1f | %9s | %10zu | %9zu | %10zu | %8zu\n",
              "baseline", baseline.qps, "1.00x", baseline.mismatches,
              baseline.abandoned, baseline.transport_reconnects,
              baseline.backoff_retries);
  std::printf("%-10s | %9.1f | %8.2fx | %10zu | %9zu | %10zu | %8zu\n",
              "chaos", chaos.qps, chaos_ratio, chaos.mismatches,
              chaos.abandoned, chaos.transport_reconnects,
              chaos.backoff_retries);
  std::printf("%-10s | %9.1f | %8.2fx | %10zu | %9zu | %10zu | %8zu\n",
              "recovery", recovery.qps, recovery_ratio, recovery.mismatches,
              recovery.abandoned, recovery.transport_reconnects,
              recovery.backoff_retries);
  std::printf(
      "chaos attackers: %zu corrupt pushes (%zu rejected), %zu valid "
      "pushes (%zu swapped), %zu slow-loris sheds, %zu abandoned batches\n",
      corrupt_pushes, corrupt_rejected, valid_pushes, valid_swapped,
      loris_closed, batches_abandoned);
  std::printf(
      "overload: %zu ok, %zu shed (bad statuses %zu, missing hints %zu, "
      "mismatches %zu)\n",
      burst_ok, burst_shed, burst_bad_status, burst_missing_hint,
      burst_mismatch);
  std::printf("drain: %zu/%zu frames ok (%zu bad), new connections %s\n",
              drain_frames_ok, size_t{48}, drain_frames_bad,
              drain_refused_after ? "refused" : "ACCEPTED");
  const net::ServerStats sstats = server.stats();
  const net::WatcherStats wstats = watcher.stats();
  std::printf(
      "server: %llu accepted, %llu read errs, %llu write errs, %llu "
      "loris closes, %llu cancelled-on-disconnect; watcher: %llu swaps, "
      "%llu swap failures; /metrics scrape %s\n",
      static_cast<unsigned long long>(sstats.connections_accepted),
      static_cast<unsigned long long>(sstats.read_errors),
      static_cast<unsigned long long>(sstats.write_errors),
      static_cast<unsigned long long>(sstats.slow_loris_closes),
      static_cast<unsigned long long>(sstats.queries_cancelled_on_disconnect),
      static_cast<unsigned long long>(wstats.swaps_completed),
      static_cast<unsigned long long>(wstats.swap_failures),
      metrics_ok ? "ok" : "FAILED");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    } else {
      std::fprintf(f, "{\n  \"bench\": \"serverd_chaos\",\n");
      std::fprintf(f,
                   "  \"corpus\": {\"sets\": %zu, \"vocab\": %zu},\n"
                   "  \"queries_per_phase\": %zu,\n",
                   corpus.NumSets(), corpus.vocabulary.size(), stream.size());
      std::fprintf(
          f,
          "  \"baseline\": {\"qps\": %.2f},\n"
          "  \"chaos\": {\"qps\": %.2f, \"ratio\": %.3f, \"abandoned\": %zu, "
          "\"reconnects\": %zu},\n"
          "  \"recovery\": {\"qps\": %.2f, \"ratio\": %.3f},\n",
          baseline.qps, chaos.qps, chaos_ratio, chaos.abandoned,
          chaos.transport_reconnects, recovery.qps, recovery_ratio);
      std::fprintf(f,
                   "  \"attackers\": {\"corrupt_pushes\": %zu, "
                   "\"corrupt_rejected\": %zu, \"valid_swapped\": %zu, "
                   "\"loris_sheds\": %zu, \"abandoned_batches\": %zu},\n",
                   corrupt_pushes, corrupt_rejected, valid_swapped,
                   loris_closed, batches_abandoned);
      std::fprintf(f,
                   "  \"overload\": {\"ok\": %zu, \"shed\": %zu, "
                   "\"missing_hints\": %zu},\n",
                   burst_ok, burst_shed, burst_missing_hint);
      std::fprintf(f, "  \"drain\": {\"frames_ok\": %zu, \"refused_after\": "
                      "%s},\n",
                   drain_frames_ok, drain_refused_after ? "true" : "false");
      const bool exact = baseline.mismatches == 0 && chaos.mismatches == 0 &&
                         recovery.mismatches == 0 && burst_mismatch == 0 &&
                         drain_frames_bad == 0;
      std::fprintf(f, "  \"exact\": %s,\n  \"recovered\": %s\n}\n",
                   exact ? "true" : "false",
                   recovery_ratio >= kRecoveryBar ? "true" : "false");
      std::fclose(f);
      std::printf("json written to %s\n", json_path.c_str());
    }
  }
  std::filesystem::remove(repo_path);

  // ---- gates ------------------------------------------------------------
  bool hard_failure = false;
  if (baseline.mismatches + chaos.mismatches + recovery.mismatches +
          burst_mismatch >
      0) {
    std::fprintf(stderr,
                 "ERROR: wire results diverged from the serial reference\n");
    hard_failure = true;
  }
  if (baseline.abandoned + recovery.abandoned > 0) {
    std::fprintf(stderr, "ERROR: queries failed outside the chaos window\n");
    hard_failure = true;
  }
  if (corrupt_pushes == 0 || corrupt_rejected != corrupt_pushes) {
    std::fprintf(stderr,
                 "ERROR: corrupt pushes not all rejected (%zu of %zu)\n",
                 corrupt_rejected, corrupt_pushes);
    hard_failure = true;
  }
  if (valid_pushes == 0 || valid_swapped != valid_pushes) {
    std::fprintf(stderr, "ERROR: the valid mid-chaos push did not swap\n");
    hard_failure = true;
  }
  if (burst_shed == 0 || burst_ok == 0 || burst_bad_status > 0 ||
      burst_missing_hint > 0) {
    std::fprintf(stderr, "ERROR: overload shedding was not clean "
                         "(bad statuses or missing retry hints)\n");
    hard_failure = true;
  }
  if (drain_frames_ok != 48 || drain_frames_bad > 0 || !drain_refused_after) {
    std::fprintf(stderr, "ERROR: drain did not complete in-flight work "
                         "cleanly (or kept accepting)\n");
    hard_failure = true;
  }
  if (!metrics_ok) {
    std::fprintf(stderr, "ERROR: /metrics scrape missing expected series\n");
    hard_failure = true;
  }
  if (hard_failure) return 2;
  if (recovery_ratio < kRecoveryBar) {
    std::fprintf(stderr,
                 "WARN: recovery goodput %.2fx of baseline, below the %.2fx "
                 "bar (timing; tolerated on busy runners)\n",
                 recovery_ratio, kRecoveryBar);
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace koios

int main(int argc, char** argv) {
  size_t total_queries = 144;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      total_queries = static_cast<size_t>(std::stoul(argv[++i]));
    }
  }
  return koios::Run(total_queries, json_path);
}
