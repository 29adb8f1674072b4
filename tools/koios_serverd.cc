// koios_serverd — the failure-hardened network front-end. Serves the Koios
// top-k semantic overlap search from a repository file over TCP (binary
// protocol + line-JSON + /healthz //readyz //metrics HTTP), with:
//
//   * zero-touch snapshot reload: a watcher thread polls the repository
//     file and hot-swaps on change, fail-closed (a corrupt push is
//     rejected; the old snapshot keeps answering);
//   * graceful drain: SIGTERM/SIGINT stop accepting, flip /readyz to 503,
//     finish in-flight queries under --drain-ms, then exit 0;
//   * first-class metrics: every counter the serve stack keeps, exposed
//     in Prometheus text form on GET /metrics of the SAME listener.
//
// The daemon starts UNREADY (no engine) and becomes ready when the first
// snapshot load succeeds — pointed at a missing or corrupt file it comes
// up, answers health checks, and waits for a good push instead of
// crash-looping.
//
//   koios_serverd --repo /path/repo.bin [--port 0] [--threads 4] ...
//
// Every numeric flag takes a decimal integer of its own unsigned type:
// digits only, the whole argument, in range (--port <= 65535; --threads,
// --shards and --poll-ms >= 1).
//
// Exit status: 0 clean drain / clean stop, 1 usage, 2 bad flag value or
// startup failure.

#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <type_traits>

#include "koios/net/engine_slot.h"
#include "koios/net/repository_watcher.h"
#include "koios/net/server.h"
#include "koios/serve/engine_metrics.h"
#include "koios/util/metric_registry.h"
#include "koios/util/trace_recorder.h"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleShutdownSignal(int) { g_shutdown = 1; }

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --repo <file> [options]\n"
      "  --repo PATH            repository file to serve (watched for "
      "changes)\n"
      "  --port N               listen port (default 0 = ephemeral; the "
      "chosen\n"
      "                         port is printed to stdout)\n"
      "  --bind ADDR            bind address (default 127.0.0.1)\n"
      "  --port-file PATH       also write the chosen port to this file\n"
      "  --threads N            query worker threads (default 4)\n"
      "  --shards N             corpus shards per query (default 1): the "
      "set\n"
      "                         collection is partitioned N ways and every\n"
      "                         query fans out with cross-shard θlb "
      "exchange;\n"
      "                         results are bit-identical at any N\n"
      "  --queue N              admission queue bound (default 256)\n"
      "  --deadline-ms N        default per-query deadline (default 0 = "
      "none)\n"
      "  --cache-bytes N        cursor cache byte budget (default 64MiB)\n"
      "  --poll-ms N            repository watch interval (default 500)\n"
      "  --max-conns N          connection cap (default 256)\n"
      "  --max-request-bytes N  request size cap (default 1MiB)\n"
      "  --drain-ms N           graceful drain budget on SIGTERM (default "
      "5000)\n"
      "  --read-deadline-ms N   slow-loris close threshold (default 10000)\n"
      "  --write-deadline-ms N  stalled-reader close threshold (default "
      "10000)\n"
      "  --idle-ms N            idle connection close (default 60000, 0 = "
      "never)\n"
      "  --trace-sample N       trace 1 in N queries (default 16, 0 = "
      "tracing\n"
      "                         off); sampled spans feed /debug/tracez and\n"
      "                         koios_phase_seconds\n"
      "  --trace-ring N         per-thread span ring capacity (default "
      "4096)\n"
      "  --slow-query-ms N      log span tree + stats for queries slower "
      "than\n"
      "                         this (default 0 = off; 1 line/sec max)\n",
      argv0);
  return 1;
}

/// Parses `text` as a decimal T of at least `min`: digits only (from_chars
/// takes no sign, space or suffix for an unsigned type), the whole
/// argument, no overflow.
template <typename T>
bool ParseNumber(const char* text, T min, T* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end && *out >= min;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace koios;

  std::string repo;
  std::string port_file;
  net::ServerOptions server_options;
  net::WatcherOptions watcher_options;
  watcher_options.engine.num_threads = 4;
  watcher_options.engine.cursor_cache_bytes = 64u << 20;
  uint32_t trace_sample = 16;
  uint32_t trace_ring = 4096;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Matches numeric flag `flag`, reads its value as a decimal of
    // `min`'s type, at least `min`, and stores it in `out`. A bad value
    // exits 2 here, before anything binds, loads or starts a thread.
    auto numeric = [&](const char* flag, auto min, auto& out) {
      if (arg != flag || i + 1 >= argc) return false;
      const char* text = argv[++i];
      decltype(min) value{};
      if (!ParseNumber(text, min, &value)) {
        std::fprintf(stderr,
                     "koios_serverd: %s takes a decimal integer in [%llu, "
                     "%llu], got '%s'\n",
                     flag, static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(
                         std::numeric_limits<decltype(min)>::max()),
                     text);
        std::exit(2);
      }
      out = std::remove_reference_t<decltype(out)>(value);
      return true;
    };
    auto& engine = watcher_options.engine;
    auto& options = server_options;
    if (arg == "--repo" && i + 1 < argc) {
      repo = argv[++i];
    } else if (arg == "--bind" && i + 1 < argc) {
      options.bind_address = argv[++i];
    } else if (arg == "--port-file" && i + 1 < argc) {
      port_file = argv[++i];
    } else if (numeric("--port", uint16_t{0}, options.port) ||
               numeric("--threads", uint32_t{1}, engine.num_threads) ||
               numeric("--shards", uint32_t{1}, engine.num_shards) ||
               numeric("--queue", uint32_t{0}, engine.max_queue) ||
               numeric("--deadline-ms", uint32_t{0},
                       options.default_query_deadline) ||
               numeric("--cache-bytes", uint64_t{0},
                       engine.cursor_cache_bytes) ||
               numeric("--poll-ms", uint32_t{1},
                       watcher_options.poll_interval) ||
               numeric("--max-conns", uint32_t{0}, options.max_connections) ||
               numeric("--max-request-bytes", uint32_t{0},
                       options.max_request_bytes) ||
               numeric("--drain-ms", uint32_t{0}, options.drain_deadline) ||
               numeric("--read-deadline-ms", uint32_t{0},
                       options.read_deadline) ||
               numeric("--write-deadline-ms", uint32_t{0},
                       options.write_deadline) ||
               numeric("--idle-ms", uint32_t{0}, options.idle_timeout) ||
               numeric("--trace-sample", uint32_t{0}, trace_sample) ||
               numeric("--trace-ring", uint32_t{0}, trace_ring) ||
               numeric("--slow-query-ms", uint32_t{0},
                       engine.slow_query_threshold)) {
      // Parsed and stored.
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (repo.empty()) return Usage(argv[0]);

  // SIGPIPE-proofing, belt and suspenders with MSG_NOSIGNAL on every send:
  // a client that vanishes mid-stream must surface as EPIPE on ONE
  // connection, never as a process-killing signal.
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);

  // Tracing configures before any serving thread exists; disabled tracing
  // (--trace-sample 0) leaves only a relaxed load + branch on hot paths.
  if (trace_sample > 0) {
    util::TraceRecorder::Options trace_options;
    trace_options.sample_every = trace_sample;
    if (trace_ring > 0) trace_options.ring_spans = trace_ring;
    util::TraceRecorder::Instance().Configure(trace_options);
  }

  util::MetricRegistry registry;
  net::EngineSlot slot;
  // The engine family resolves through the slot per scrape: all zeros
  // until the first snapshot loads, then live engine/cursor-cache stats.
  serve::RegisterEngineMetrics(
      &registry, [&slot]() -> std::shared_ptr<const serve::QueryEngine> {
        return slot.Get();
      });
  net::RepositoryWatcher watcher(repo, &slot, &registry, watcher_options);
  net::Server server(&slot, &registry, server_options);

  if (util::Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "koios_serverd: %s\n", s.ToString().c_str());
    return 2;
  }
  watcher.Start();

  std::printf("koios_serverd listening on %s:%u (repo %s)\n",
              server_options.bind_address.c_str(), server.port(),
              repo.c_str());
  std::fflush(stdout);
  if (!port_file.empty()) {
    if (std::FILE* f = std::fopen(port_file.c_str(), "w")) {
      std::fprintf(f, "%u\n", server.port());
      std::fclose(f);
    }
  }

  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // Graceful drain: stop accepting, answer kUnavailable, finish + flush
  // in-flight work (bounded by --drain-ms), then exit 0.
  std::fprintf(stderr, "koios_serverd: draining...\n");
  server.Drain();
  watcher.Stop();
  std::fprintf(stderr, "koios_serverd: drained, exiting\n");
  return 0;
}
