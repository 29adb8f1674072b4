// Chaos harness for the failure-hardened serving layer (ISSUE 6): measures
// goodput while the fault injector hammers the engine's seams, and gates
// HARD on graceful degradation. Three phases over one snapshot-backed
// engine:
//
//  * baseline  — closed-loop QPS with nothing armed.
//  * chaos     — the same stream while (a) a third of worker dispatches run
//                late, (b) a fifth of cursor publishes are dropped, and
//                (c) a background thread hammers TrySwapFromRepository with
//                a corrupted v4 repository file (eager verification must
//                fail every attempt cleanly and the engine must keep
//                serving), with ONE valid swap to a byte-identical
//                repository mid-window (results must not move — cursor
//                builds are deterministic).
//  * recovery  — disarm everything, rerun the stream: goodput must return
//                to >= 90% of baseline (exit 3 if not — timing, tolerated
//                on busy CI runners like the other benches' bars).
//
// A separate overload burst drives a tiny-queue engine into admission
// control: every rejection must be a clean ResourceExhausted or
// DeadlineExceeded CARRYING a retry-after hint, and successes must stay
// exact.
//
// Hard invariants (exit 2, never tolerated): no crash, every successful
// query bit-identical to the serial reference, every failure a clean
// Status with zero partial results, corrupted reloads never take the
// engine down or flip it to a broken snapshot.
//
// Usage: bench_serve_chaos [--json out.json] [--queries N]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "koios/core/searcher.h"
#include "koios/data/corpus.h"
#include "koios/data/query_benchmark.h"
#include "koios/embedding/synthetic_model.h"
#include "koios/io/repository_v4.h"
#include "koios/serve/query_engine.h"
#include "koios/serve/snapshot.h"
#include "koios/util/fault_injector.h"
#include "koios/util/rng.h"
#include "koios/util/timer.h"

namespace koios {
namespace {

constexpr double kRecoveryBar = 0.9;  // recovery QPS >= 0.9x baseline

struct Scenario {
  std::vector<TokenId> tokens;
  core::SearchParams params;
};

bool SameResult(const core::SearchResult& got, const core::SearchResult& want) {
  if (got.topk.size() != want.topk.size()) return false;
  for (size_t i = 0; i < got.topk.size(); ++i) {
    if (got.topk[i].set != want.topk[i].set ||
        got.topk[i].score != want.topk[i].score ||
        got.topk[i].exact != want.topk[i].exact) {
      return false;
    }
  }
  return true;
}

struct LoopOutcome {
  double sec = 0.0;
  double qps = 0.0;
  size_t mismatches = 0;
  size_t unexpected_failures = 0;
};

/// Closed loop: `clients` threads each drive their slice of the stream
/// synchronously. Successes must match the reference; with the queue sized
/// to the stream and no deadline set, ANY failure is unexpected.
LoopOutcome RunClosedLoop(serve::QueryEngine* engine,
                          const std::vector<Scenario>& scenarios,
                          const std::vector<core::SearchResult>& reference,
                          const std::vector<size_t>& stream, size_t clients) {
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  util::WallTimer timer;
  std::vector<std::thread> workers;
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (size_t i = c; i < stream.size(); i += clients) {
        const size_t si = stream[i];
        serve::QueryEngine::Result r =
            engine->Submit(scenarios[si].tokens, scenarios[si].params).get();
        if (!r.ok()) {
          ++failures;
        } else if (!SameResult(r.value(), reference[si])) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  LoopOutcome out;
  out.sec = timer.ElapsedSeconds();
  out.qps = static_cast<double>(stream.size()) / out.sec;
  out.mismatches = mismatches.load();
  out.unexpected_failures = failures.load();
  return out;
}

int Run(size_t total_queries, const std::string& json_path) {
  // ---- corpus -> repository file -> snapshot -> engine ------------------
  data::CorpusSpec spec;
  spec.name = "serve-chaos";
  spec.num_sets = 1800;
  spec.vocab_size = 2400;
  spec.element_skew = 0.7;
  spec.size_distribution = data::SizeDistribution::kNormal;
  spec.min_set_size = 6;
  spec.max_set_size = 36;
  spec.avg_set_size = 16.0;
  spec.size_stddev = 7.0;
  spec.seed = 20260806;
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
  const std::string repo_path = dir + "/koios_chaos_repo.bin";
  const std::string corrupt_path = dir + "/koios_chaos_corrupt.bin";
  {
    auto status =
        io::SaveRepositoryV4(dict, corpus.sets, &model.store(), repo_path);
    if (!status.ok()) {
      std::fprintf(stderr, "ERROR: save failed: %s\n",
                   status.ToString().c_str());
      return 2;
    }
    // The corrupted twin: same file with one byte flipped mid-file. Every
    // v4 section carries its own CRC, and a swap verifies them all
    // eagerly, so this is a guaranteed checksum error.
    std::ifstream in(repo_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
    std::ofstream out(corrupt_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto loaded = serve::Snapshot::Load(repo_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "ERROR: snapshot load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 2;
  }
  std::shared_ptr<const serve::Snapshot> snapshot = loaded.value();
  std::printf("[setup] %zu sets, %zu vocab, repo %.1f KB, %.1fs\n",
              corpus.NumSets(), corpus.vocabulary.size(),
              static_cast<double>(std::filesystem::file_size(repo_path)) / 1024,
              setup_timer.ElapsedSeconds());

  // ---- scenarios + serial reference -------------------------------------
  const size_t ks[] = {1, 5, 10};
  const Score alphas[] = {0.7, 0.8};
  util::Rng rng(424244);
  const auto sampled = data::SampleQueriesUniform(corpus, 36, &rng);
  std::vector<Scenario> scenarios;
  for (size_t i = 0; i < sampled.size(); ++i) {
    Scenario s;
    s.tokens = sampled[i].tokens;
    s.params.k = ks[i % 3];
    s.params.alpha = alphas[i % 2];
    scenarios.push_back(std::move(s));
  }
  std::vector<size_t> stream(total_queries);
  for (size_t i = 0; i < stream.size(); ++i) stream[i] = i % scenarios.size();

  core::KoiosSearcher serial(&snapshot->sets(), snapshot->index());
  std::vector<core::SearchResult> reference;
  for (const Scenario& s : scenarios) {
    reference.push_back(serial.Search(s.tokens, s.params));
  }

  serve::EngineOptions options;
  options.num_threads = 4;
  options.max_queue = stream.size();
  serve::QueryEngine engine(snapshot, options);

  // ---- phase 1: baseline ------------------------------------------------
  const LoopOutcome baseline =
      RunClosedLoop(&engine, scenarios, reference, stream, 4);

  // ---- phase 2: chaos window --------------------------------------------
  LoopOutcome chaos;
  uint64_t dispatch_delays = 0, publish_drops = 0;
  size_t corrupt_swap_oks = 0, corrupt_swap_failures = 0;
  bool valid_swap_ok = false;
  {
    util::FaultSpec slow;
    slow.latency = std::chrono::milliseconds(2);
    slow.latency_probability = 0.33;
    slow.seed = 101;
    util::ScopedFault dispatch_fault("threadpool.dispatch", slow);
    util::FaultSpec drop;
    drop.fail_probability = 0.2;
    drop.seed = 102;
    util::ScopedFault publish_fault("cursor.publish", drop);

    // Reload attack alongside the query load: corrupted reloads must fail
    // cleanly forever; the one valid swap (byte-identical repository) must
    // succeed without moving a result.
    std::atomic<bool> stop{false};
    std::thread attacker([&] {
      size_t attempt = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (++attempt == 4) {
          valid_swap_ok = engine.TrySwapFromRepository(repo_path).ok();
        } else {
          auto status = engine.TrySwapFromRepository(corrupt_path);
          if (status.ok()) {
            ++corrupt_swap_oks;  // must never happen
          } else {
            ++corrupt_swap_failures;
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    chaos = RunClosedLoop(&engine, scenarios, reference, stream, 4);
    stop.store(true, std::memory_order_relaxed);
    attacker.join();
    dispatch_delays =
        util::FaultInjector::Instance().Stats("threadpool.dispatch").hits;
    publish_drops =
        util::FaultInjector::Instance().Stats("cursor.publish").fires;
  }

  // ---- phase 3: recovery ------------------------------------------------
  const LoopOutcome recovery =
      RunClosedLoop(&engine, scenarios, reference, stream, 4);

  // ---- overload burst ---------------------------------------------------
  // A deliberately tiny engine + slow dispatch: admission control must
  // shed load with clean, hint-carrying statuses while successes stay
  // exact. Deadlines let the fail-fast governor path fire too.
  size_t burst_ok = 0, burst_rejected = 0;
  size_t burst_bad_status = 0, burst_missing_hint = 0, burst_mismatch = 0;
  {
    util::FaultSpec slow;
    slow.latency = std::chrono::milliseconds(20);
    util::ScopedFault dispatch_fault("threadpool.dispatch", slow);
    serve::EngineOptions small;
    small.num_threads = 2;
    small.max_queue = 2;
    serve::QueryEngine overloaded(snapshot, small);
    std::vector<std::future<serve::QueryEngine::Result>> futures;
    std::vector<size_t> submitted;
    for (size_t i = 0; i < 64; ++i) {
      const size_t si = stream[i % stream.size()];
      submitted.push_back(si);
      futures.push_back(overloaded.Submit(scenarios[si].tokens,
                                          scenarios[si].params,
                                          std::chrono::milliseconds(400)));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      serve::QueryEngine::Result r = futures[i].get();
      if (r.ok()) {
        ++burst_ok;
        if (!SameResult(r.value(), reference[submitted[i]])) ++burst_mismatch;
        continue;
      }
      ++burst_rejected;
      const util::StatusCode code = r.status().code();
      if (code != util::StatusCode::kResourceExhausted &&
          code != util::StatusCode::kDeadlineExceeded) {
        ++burst_bad_status;
      }
      if (!r.status().has_retry_after()) ++burst_missing_hint;
    }
  }

  const serve::EngineCounters counters = engine.counters();

  // ---- report -----------------------------------------------------------
  const double chaos_ratio = chaos.qps / baseline.qps;
  const double recovery_ratio = recovery.qps / baseline.qps;
  std::printf("\n=== serve chaos: %zu queries/phase, %zu scenarios ===\n",
              stream.size(), scenarios.size());
  std::printf("%-10s | %9s | %9s | %10s | %8s\n", "phase", "QPS", "vs base",
              "mismatches", "failures");
  std::printf("%s\n", std::string(60, '-').c_str());
  std::printf("%-10s | %9.1f | %9s | %10zu | %8zu\n", "baseline", baseline.qps,
              "1.00x", baseline.mismatches, baseline.unexpected_failures);
  std::printf("%-10s | %9.1f | %8.2fx | %10zu | %8zu\n", "chaos", chaos.qps,
              chaos_ratio, chaos.mismatches, chaos.unexpected_failures);
  std::printf("%-10s | %9.1f | %8.2fx | %10zu | %8zu\n", "recovery",
              recovery.qps, recovery_ratio, recovery.mismatches,
              recovery.unexpected_failures);
  std::printf(
      "chaos window: %llu delayed dispatches, %llu dropped publishes, "
      "%zu corrupt reloads (all rejected: %s), valid swap: %s\n",
      static_cast<unsigned long long>(dispatch_delays),
      static_cast<unsigned long long>(publish_drops), corrupt_swap_failures,
      corrupt_swap_oks == 0 ? "yes" : "NO", valid_swap_ok ? "ok" : "FAILED");
  std::printf(
      "overload burst: %zu ok, %zu shed (bad statuses: %zu, missing "
      "hints: %zu, mismatches: %zu)\n",
      burst_ok, burst_rejected, burst_bad_status, burst_missing_hint,
      burst_mismatch);
  std::printf("engine counters: %llu completed, %llu swap failures, %llu "
              "swaps\n",
              static_cast<unsigned long long>(counters.completed),
              static_cast<unsigned long long>(counters.swap_failures),
              static_cast<unsigned long long>(counters.swaps_completed));

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    } else {
      std::fprintf(f, "{\n  \"bench\": \"serve_chaos\",\n");
      std::fprintf(f,
                   "  \"corpus\": {\"sets\": %zu, \"vocab\": %zu},\n"
                   "  \"queries_per_phase\": %zu,\n",
                   corpus.NumSets(), corpus.vocabulary.size(), stream.size());
      std::fprintf(f,
                   "  \"baseline\": {\"qps\": %.2f},\n"
                   "  \"chaos\": {\"qps\": %.2f, \"ratio\": %.3f},\n"
                   "  \"recovery\": {\"qps\": %.2f, \"ratio\": %.3f},\n",
                   baseline.qps, chaos.qps, chaos_ratio, recovery.qps,
                   recovery_ratio);
      std::fprintf(f,
                   "  \"faults\": {\"delayed_dispatches\": %llu, "
                   "\"dropped_publishes\": %llu, \"corrupt_reloads\": %zu},\n",
                   static_cast<unsigned long long>(dispatch_delays),
                   static_cast<unsigned long long>(publish_drops),
                   corrupt_swap_failures);
      std::fprintf(f,
                   "  \"overload\": {\"ok\": %zu, \"shed\": %zu, "
                   "\"missing_hints\": %zu},\n",
                   burst_ok, burst_rejected, burst_missing_hint);
      const bool exact = baseline.mismatches == 0 && chaos.mismatches == 0 &&
                         recovery.mismatches == 0 && burst_mismatch == 0;
      std::fprintf(f, "  \"exact\": %s,\n  \"recovered\": %s\n}\n",
                   exact ? "true" : "false",
                   recovery_ratio >= kRecoveryBar ? "true" : "false");
      std::fclose(f);
      std::printf("json written to %s\n", json_path.c_str());
    }
  }
  std::filesystem::remove(repo_path);
  std::filesystem::remove(corrupt_path);

  // ---- gates ------------------------------------------------------------
  bool hard_failure = false;
  if (baseline.mismatches + chaos.mismatches + recovery.mismatches +
          burst_mismatch >
      0) {
    std::fprintf(stderr, "ERROR: results diverged from the serial reference\n");
    hard_failure = true;
  }
  if (baseline.unexpected_failures + chaos.unexpected_failures +
          recovery.unexpected_failures >
      0) {
    std::fprintf(stderr, "ERROR: unexpected query failures (the queue was "
                         "sized to the stream and no deadline was set)\n");
    hard_failure = true;
  }
  if (corrupt_swap_oks > 0 || !valid_swap_ok || corrupt_swap_failures == 0) {
    std::fprintf(stderr, "ERROR: reload attack invariants violated\n");
    hard_failure = true;
  }
  if (burst_bad_status > 0 || burst_missing_hint > 0 || burst_rejected == 0 ||
      burst_ok == 0) {
    std::fprintf(stderr, "ERROR: overload shedding was not clean "
                         "(bad statuses or missing retry hints)\n");
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
