// Shared infrastructure for the per-table / per-figure benchmark binaries.
//
// Every binary builds laptop-scale replicas of the paper's datasets
// (Table I shapes, see koios/data/corpus.h) — the scale factors below are
// recorded in EXPERIMENTS.md. Heavy-tailed presets additionally cap the
// maximum set cardinality so a single exact matching stays tractable on
// one core; the paper itself reports time-outs (2500 s) for its largest
// sets on a 64-core box.
#ifndef KOIOS_BENCH_BENCH_UTIL_H_
#define KOIOS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "koios/baselines/brute_force.h"
#include "koios/core/searcher.h"
#include "koios/data/corpus.h"
#include "koios/data/query_benchmark.h"
#include "koios/embedding/synthetic_model.h"
#include "koios/sim/cosine_similarity.h"
#include "koios/sim/exact_knn_index.h"
#include "koios/util/rng.h"
#include "koios/util/timer.h"

namespace koios::bench {

enum class Dataset { kDblp, kOpenData, kTwitter, kWdc };

inline const char* DatasetName(Dataset d) {
  switch (d) {
    case Dataset::kDblp:
      return "DBLP";
    case Dataset::kOpenData:
      return "OpenData";
    case Dataset::kTwitter:
      return "Twitter";
    case Dataset::kWdc:
      return "WDC";
  }
  return "?";
}

/// Benchmark-scale corpus spec per dataset. Set counts and vocabulary
/// sizes are scaled *separately*: scaling the vocabulary less than the set
/// count keeps posting lists long and candidate graphs dense, preserving
/// the paper's cost structure (verification dominates the baseline) on a
/// one-core replica. Cardinality distributions and element skew follow
/// Table I; heavy tails are capped so a single exact matching stays
/// tractable.
inline data::CorpusSpec BenchSpec(Dataset d) {
  switch (d) {
    case Dataset::kDblp: {
      auto spec = data::DblpSpec(1.0);
      spec.num_sets = 1273;    // 0.3x
      spec.vocab_size = 2516;  // 0.1x
      return spec;
    }
    case Dataset::kOpenData: {
      auto spec = data::OpenDataSpec(1.0);
      spec.num_sets = 2345;    // 0.15x
      spec.vocab_size = 7193;  // 0.04x
      spec.max_set_size = 800;
      return spec;
    }
    case Dataset::kTwitter: {
      auto spec = data::TwitterSpec(1.0);
      spec.num_sets = 27204;   // 1.0x (sets are tiny; count drives the baseline cost)
      spec.vocab_size = 5832;  // 0.08x
      return spec;
    }
    case Dataset::kWdc: {
      auto spec = data::WdcSpec(1.0);
      spec.num_sets = 15215;   // 0.015x
      spec.vocab_size = 3940;  // 0.012x — WDC's very long posting lists
      spec.max_set_size = 600;
      return spec;
    }
  }
  return {};
}

struct BenchWorkload {
  Dataset dataset;
  data::Corpus corpus;
  std::unique_ptr<embedding::SyntheticEmbeddingModel> model;
  std::unique_ptr<sim::CosineEmbeddingSimilarity> sim;
  std::unique_ptr<sim::ExactKnnIndex> index;
};

inline BenchWorkload MakeBenchWorkload(Dataset d) {
  BenchWorkload w;
  w.dataset = d;
  const data::CorpusSpec spec = BenchSpec(d);
  util::WallTimer timer;
  w.corpus = data::GenerateCorpus(spec);

  embedding::SyntheticModelSpec model_spec;
  model_spec.vocab_size = spec.vocab_size;
  model_spec.dim = 32;
  model_spec.avg_cluster_size = 16.0;
  model_spec.noise_sigma = 0.38;
  // The paper filters OpenData/WDC at 70% embedding coverage; DBLP and
  // Twitter text is mostly covered by FastText.
  model_spec.coverage =
      (d == Dataset::kOpenData || d == Dataset::kWdc) ? 0.8 : 0.95;
  model_spec.seed = spec.seed * 31 + 1;
  w.model = std::make_unique<embedding::SyntheticEmbeddingModel>(model_spec);
  w.sim = std::make_unique<sim::CosineEmbeddingSimilarity>(&w.model->store());
  w.index = std::make_unique<sim::ExactKnnIndex>(w.corpus.vocabulary, w.sim.get());
  std::fprintf(stderr, "[setup] %s: %zu sets, %zu vocab, built in %.1fs\n",
               DatasetName(d), w.corpus.NumSets(), w.corpus.vocabulary.size(),
               timer.ElapsedSeconds());
  return w;
}

/// Benchmark queries for a workload: interval-sampled for the skewed
/// datasets (OpenData, WDC), uniform for DBLP / Twitter (paper §VIII-A2).
struct BenchQueries {
  std::vector<data::CardinalityInterval> intervals;  // empty if uniform
  std::vector<data::BenchmarkQuery> queries;
};

inline BenchQueries MakeBenchQueries(const BenchWorkload& w,
                                     size_t per_interval, size_t uniform_count,
                                     uint64_t seed = 424242) {
  BenchQueries out;
  util::Rng rng(seed);
  const size_t max_size = w.corpus.sets.MaxSetSize();
  if (w.dataset == Dataset::kOpenData) {
    out.intervals = data::OpenDataIntervals(max_size);
    out.queries =
        data::SampleQueriesByInterval(w.corpus, out.intervals, per_interval, &rng);
  } else if (w.dataset == Dataset::kWdc) {
    out.intervals = data::WdcIntervals(max_size);
    out.queries =
        data::SampleQueriesByInterval(w.corpus, out.intervals, per_interval, &rng);
  } else {
    out.queries = data::SampleQueriesUniform(w.corpus, uniform_count, &rng);
  }
  return out;
}

/// Aggregates per-query measurements (means over a benchmark).
struct Aggregate {
  double sum = 0.0;
  size_t n = 0;
  void Add(double x) {
    sum += x;
    ++n;
  }
  double Mean() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

/// Exact nearest-rank percentile, `p` in [0, 100]: the smallest sample with
/// at least p% of the samples at or below it (p = 0 is the minimum). 0 when
/// empty. Benches keep every sample; the engine's histograms estimate.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 * samples.size());
  return samples[std::clamp<size_t>(static_cast<size_t>(rank), 1,
                                    samples.size()) -
                 1];
}

/// One line in milliseconds from latency samples in seconds, e.g.
/// "n=128 mean=1.20ms p50=1.10ms p95=2.00ms p99=3.40ms max=5.00ms".
inline std::string LatencySummary(const std::vector<double>& seconds) {
  double sum = 0.0;
  for (double s : seconds) sum += s;
  const double mean = seconds.empty() ? 0.0 : sum / seconds.size();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%zu mean=%.2fms p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms",
                seconds.size(), mean * 1e3, Percentile(seconds, 50) * 1e3,
                Percentile(seconds, 95) * 1e3, Percentile(seconds, 99) * 1e3,
                Percentile(seconds, 100) * 1e3);
  return buf;
}

/// One Koios run over a query; wall-clock response plus the engine stats.
struct RunOutcome {
  double response_sec = 0.0;
  double refinement_sec = 0.0;
  double postprocess_sec = 0.0;
  size_t memory_bytes = 0;
  core::SearchStats stats;
  Score kth_score = 0.0;
  std::vector<core::ResultEntry> topk;
};

inline RunOutcome RunKoios(core::KoiosSearcher* searcher,
                           const std::vector<TokenId>& query,
                           const core::SearchParams& params) {
  util::WallTimer timer;
  core::SearchResult result = searcher->Search(query, params);
  RunOutcome out;
  out.response_sec = timer.ElapsedSeconds();
  out.refinement_sec = result.stats.timers.Get(core::Phase::kRefinement);
  out.postprocess_sec = result.stats.timers.Get(core::Phase::kPostprocess);
  out.memory_bytes = result.stats.memory.TotalBytes();
  out.kth_score = result.KthScore();
  out.stats = result.stats;
  out.topk = std::move(result.topk);
  return out;
}

inline RunOutcome RunBaseline(baselines::BruteForceBaseline* baseline,
                              const std::vector<TokenId>& query,
                              const baselines::BaselineOptions& options) {
  util::WallTimer timer;
  core::SearchResult result = baseline->Search(query, options);
  RunOutcome out;
  out.response_sec = timer.ElapsedSeconds();
  out.refinement_sec = result.stats.timers.Get(core::Phase::kRefinement);
  out.postprocess_sec = result.stats.timers.Get(core::Phase::kPostprocess);
  out.memory_bytes = result.stats.memory.TotalBytes();
  out.kth_score = result.KthScore();
  out.stats = result.stats;
  out.topk = std::move(result.topk);
  return out;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRule() {
  std::printf("%s\n", std::string(78, '-').c_str());
}

}  // namespace koios::bench

#endif  // KOIOS_BENCH_BENCH_UTIL_H_
