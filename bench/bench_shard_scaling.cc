// Shard scaling harness (corpus shards: the paper's §VI partitions,
// searched concurrently): per-query scatter-gather speedup of the sharded
// QueryEngine over a partitioned corpus, plus the θlb exchange ablation.
//
// Setup: a ~100k-set corpus (WDC-shaped skew at laptop scale), one engine
// per shard count N ∈ {1, 2, 4, 8} with ONE query worker — so closed-loop
// QPS is the inverse of single-query latency and the N-way fan-out is the
// only parallelism being measured. Three gates:
//
//  * bit-identity (HARD, exit 2): every result at every N must match the
//    serial KoiosSearcher reference bit for bit (set, score, exact flag).
//    This is the tentpole's equivalence contract: sharding is an execution
//    strategy, never a semantics change.
//  * θlb exchange (HARD, exit 2): with the cross-shard exchange ON, the
//    summed per-shard stream_tuples_produced over the query set must be
//    LOWER than with it off, at identical results. Measured through the
//    coordinator's sequential-scatter mode, where tuple counts are
//    deterministic (shard 0's bound is already published when shard 1
//    starts).
//  * scaling (soft, exit 3): QPS at N=4 must reach 2.5× N=1. Needs ≥ 4
//    real cores; smaller hosts report and exit 3 (tolerated in CI, same
//    convention as the other benches' timing bars).
//
// Usage: bench_shard_scaling [--json out.json] [--sets N] [--queries N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "koios/core/searcher.h"
#include "koios/data/corpus.h"
#include "koios/data/query_benchmark.h"
#include "koios/embedding/synthetic_model.h"
#include "koios/serve/query_engine.h"
#include "koios/serve/shard_coordinator.h"
#include "koios/sim/cosine_similarity.h"
#include "koios/sim/exact_knn_index.h"
#include "koios/util/rng.h"
#include "koios/util/timer.h"
#include "bench_util.h"

namespace koios {
namespace {

constexpr double kRequiredSpeedupAt4 = 2.5;

struct Scenario {
  std::vector<TokenId> tokens;
  core::SearchParams params;
};

struct ShardRun {
  size_t shards = 0;
  double qps = 0.0;
  double speedup = 1.0;
  std::vector<double> latency;  // seconds, one per query
  size_t sum_produced = 0;  // Σ per-shard stream_tuples_produced
  bool exact = true;
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

int Run(size_t num_sets, size_t num_queries, const std::string& json_path) {
  // ---- partitioned corpus ----------------------------------------------
  data::CorpusSpec spec;
  spec.name = "shard-scaling";
  spec.num_sets = num_sets;
  spec.vocab_size = 6000;  // long posting lists: per-shard refinement work
  spec.element_skew = 0.75;
  spec.size_distribution = data::SizeDistribution::kNormal;
  spec.min_set_size = 5;
  spec.max_set_size = 40;
  spec.avg_set_size = 16.0;
  spec.size_stddev = 7.0;
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
  sim::CosineEmbeddingSimilarity cosine(&model.store());
  sim::ExactKnnIndex index(corpus.vocabulary, &cosine);
  core::KoiosSearcher serial(&corpus.sets, &index);
  std::printf("[setup] %zu sets, %zu vocab, %.1fs\n", corpus.NumSets(),
              corpus.vocabulary.size(), setup_timer.ElapsedSeconds());

  // ---- mixed scenarios --------------------------------------------------
  // Queries are stored sets (SampleQueriesUniform), so the self-match
  // drives θlb to ≈|Q|. k=1 is in the mix deliberately: it is the case
  // where the θlb exchange visibly pays — the shard owning the query's
  // source set publishes θ≈|Q|, and every shard scattered after it stops
  // its token stream at τ=θ/|Q|≈1 instead of draining to α. Larger k
  // keeps the k-th score (and thus τ) below α on a de-duplicated corpus,
  // so those queries measure the no-feedback path.
  const size_t ks[] = {1, 5, 10};
  const Score alphas[] = {0.7, 0.8};
  util::Rng rng(525253);
  const auto sampled =
      data::SampleQueriesUniform(corpus, num_queries, &rng);
  std::vector<Scenario> scenarios;
  for (size_t i = 0; i < sampled.size(); ++i) {
    Scenario s;
    s.tokens = sampled[i].tokens;
    s.params.k = ks[i % 3];
    s.params.alpha = alphas[i % 2];
    scenarios.push_back(std::move(s));
  }

  // ---- serial reference (also warms the shared cursor cache) -----------
  std::vector<core::SearchResult> reference;
  for (const Scenario& s : scenarios) {
    reference.push_back(serial.Search(s.tokens, s.params));
  }

  // ---- per-N closed loop -----------------------------------------------
  // One query worker: QPS is 1 / single-query latency, so the ratio to
  // N=1 is exactly the scatter-gather speedup of ONE query.
  const size_t shard_counts[] = {1, 2, 4, 8};
  std::vector<ShardRun> runs;
  for (const size_t shards : shard_counts) {
    ShardRun run;
    run.shards = shards;
    serve::EngineOptions options;
    options.num_threads = 1;
    options.num_shards = shards;
    options.max_queue = scenarios.size();
    serve::QueryEngine engine(&corpus.sets, &index, options);

    util::WallTimer timer;
    for (size_t i = 0; i < scenarios.size(); ++i) {
      util::WallTimer query_timer;
      serve::QueryEngine::Result r =
          engine.Submit(scenarios[i].tokens, scenarios[i].params).get();
      run.latency.push_back(query_timer.ElapsedSeconds());
      if (!r.ok() || !SameResult(r.value(), reference[i])) run.exact = false;
    }
    const double sec = timer.ElapsedSeconds();
    run.qps = static_cast<double>(scenarios.size()) / sec;
    for (size_t i = 0; i < shards; ++i) {
      run.sum_produced += engine.shard_search_stats(i).stream_tuples_produced;
    }
    runs.push_back(std::move(run));
  }
  for (ShardRun& run : runs) run.speedup = run.qps / runs[0].qps;

  // ---- θlb exchange ablation (deterministic, sequential scatter) -------
  // The coordinator's null-pool mode runs shards one after another, so the
  // tuple counts don't depend on a thread race: this is the reproducible
  // FLOOR of the exchange saving (concurrent runs publish earlier).
  size_t produced_on = 0, produced_off = 0;
  bool ablation_exact = true;
  for (const bool exchange : {true, false}) {
    serve::ShardOptions shard_options;
    shard_options.num_shards = 4;
    shard_options.theta_exchange = exchange;
    serve::ShardCoordinator coordinator(&corpus.sets, &index, shard_options);
    size_t produced = 0;
    for (size_t i = 0; i < scenarios.size(); ++i) {
      serve::ShardCoordinator::QueryReport report;
      const core::SearchResult r = coordinator.Execute(
          scenarios[i].tokens, scenarios[i].params, {},
          /*shard_pool=*/nullptr, &report);
      for (const core::SearchStats& stats : report.shard_stats) {
        produced += stats.stream_tuples_produced;
      }
      if (!SameResult(r, reference[i])) ablation_exact = false;
    }
    (exchange ? produced_on : produced_off) = produced;
  }

  // ---- report -----------------------------------------------------------
  std::printf("\n=== shard scaling: %zu sets, %zu queries ===\n",
              corpus.NumSets(), scenarios.size());
  std::printf("%-8s | %9s | %8s | %9s | %9s | %12s | %s\n", "shards", "QPS",
              "speedup", "p50 ms", "p99 ms", "Σ produced", "exact");
  std::printf("%s\n", std::string(78, '-').c_str());
  for (const ShardRun& run : runs) {
    std::printf("%-8zu | %9.2f | %7.2fx | %9.2f | %9.2f | %12zu | %s\n",
                run.shards, run.qps, run.speedup,
                bench::Percentile(run.latency, 50) * 1e3,
                bench::Percentile(run.latency, 99) * 1e3, run.sum_produced,
                run.exact ? "yes" : "NO");
  }
  const double exchange_saving =
      produced_off > 0
          ? 1.0 - static_cast<double>(produced_on) /
                      static_cast<double>(produced_off)
          : 0.0;
  std::printf(
      "θlb exchange (N=4, sequential): %zu tuples produced with, %zu "
      "without (%.1f%% saved), results %s\n",
      produced_on, produced_off, exchange_saving * 100.0,
      ablation_exact ? "identical" : "DIVERGED");
  std::printf("hardware threads: %u\n", std::thread::hardware_concurrency());

  const double speedup4 = runs[2].speedup;
  bool exact = ablation_exact;
  for (const ShardRun& run : runs) exact &= run.exact;

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    } else {
      std::fprintf(f, "{\n  \"bench\": \"shard_scaling\",\n");
      std::fprintf(f,
                   "  \"corpus\": {\"sets\": %zu, \"vocab\": %zu},\n"
                   "  \"queries\": %zu,\n  \"hardware_threads\": %u,\n",
                   corpus.NumSets(), corpus.vocabulary.size(),
                   scenarios.size(), std::thread::hardware_concurrency());
      std::fprintf(f, "  \"runs\": [\n");
      for (size_t i = 0; i < runs.size(); ++i) {
        const ShardRun& run = runs[i];
        std::fprintf(f,
                     "    {\"shards\": %zu, \"qps\": %.2f, \"speedup\": "
                     "%.3f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                     "\"sum_produced\": %zu}%s\n",
                     run.shards, run.qps, run.speedup,
                     bench::Percentile(run.latency, 50) * 1e3,
                     bench::Percentile(run.latency, 99) * 1e3, run.sum_produced,
                     i + 1 < runs.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n");
      std::fprintf(f,
                   "  \"theta_exchange\": {\"produced_with\": %zu, "
                   "\"produced_without\": %zu, \"saving\": %.4f},\n",
                   produced_on, produced_off, exchange_saving);
      std::fprintf(f, "  \"exact\": %s\n}\n", exact ? "true" : "false");
      std::fclose(f);
      std::printf("json written to %s\n", json_path.c_str());
    }
  }

  if (!exact) {
    std::fprintf(stderr,
                 "ERROR: sharded results diverged from the serial reference "
                 "— the bit-identity contract is broken\n");
    return 2;
  }
  if (produced_on >= produced_off) {
    std::fprintf(stderr,
                 "ERROR: θlb exchange did not reduce producer work (%zu with "
                 ">= %zu without)\n",
                 produced_on, produced_off);
    return 2;
  }
  if (speedup4 < kRequiredSpeedupAt4) {
    std::fprintf(stderr,
                 "WARN: N=4 speedup %.2fx below the %.1fx bar (needs >= 4 "
                 "real cores; this host reports %u)\n",
                 speedup4, kRequiredSpeedupAt4,
                 std::thread::hardware_concurrency());
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace koios

int main(int argc, char** argv) {
  size_t num_sets = 100000;
  size_t num_queries = 36;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--sets") == 0 && i + 1 < argc) {
      num_sets = static_cast<size_t>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      num_queries = static_cast<size_t>(std::stoul(argv[++i]));
    }
  }
  return koios::Run(num_sets, num_queries, json_path);
}
