// Micro-benchmark for the batched neighbor-generation path (ISSUE 1): how
// fast can cursors over the vocabulary be built?
//
// Three cursor-build configurations over the same 10k-token, dim-300
// vocabulary:
//  * scalar   — the seed code path: one virtual Similarity() call per
//               (query token, vocab token) pair, then an eager full sort of
//               everything >= alpha.
//  * single   — one SimilarityBatch dense kernel scan per query token
//               (a session's first probe), alpha filter on the flat score
//               array, lazy chunked ordering (first chunk only).
//  * batched  — ExactKnnIndex's production path: Prewarm() builds the
//               query's cursors in multi-query blocks.
//
// Built cursors outlive sessions in the index's cursor cache, so the index
// rows clear that cache before every rep (outside the timer): each rep
// builds every cursor. Also reports dense-mv, one CosineAllRows
// matrix-vector product per query token, for reference; it is not the
// kernel's ceiling (batched's blocked multi-query kernel beats it). Emits
// a human-readable table and, with `--json <path>`, a JSON blob for the CI
// trajectory. Usage: bench_micro_knn [--json out.json] [--vocab N] [--dim N]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "koios/embedding/synthetic_model.h"
#include "koios/sim/cosine_similarity.h"
#include "koios/sim/exact_knn_index.h"
#include "koios/sim/similarity.h"
#include "koios/util/rng.h"
#include "koios/util/timer.h"

namespace koios {
namespace {

constexpr Score kAlpha = 0.6;
constexpr size_t kQueries = 32;
constexpr size_t kReps = 3;

// The seed's BuildCursor, reproduced verbatim as the baseline: pairwise
// virtual dispatch per vocabulary token + eager full sort.
std::vector<sim::Neighbor> SeedScalarBuildCursor(
    const sim::SimilarityFunction& sim, const std::vector<TokenId>& vocabulary,
    TokenId q, Score alpha) {
  std::vector<sim::Neighbor> neighbors;
  for (TokenId t : vocabulary) {
    if (t == q) continue;
    const Score s = sim.Similarity(q, t);
    if (s >= alpha) neighbors.push_back({t, s});
  }
  std::sort(neighbors.begin(), neighbors.end(),
            [](const sim::Neighbor& a, const sim::Neighbor& b) {
              if (a.sim != b.sim) return a.sim > b.sim;
              return a.token < b.token;
            });
  return neighbors;
}

struct Measurement {
  double seconds = 0.0;     // best-of-reps wall time for all kQueries builds
  double pairs_per_sec = 0.0;
  double build_latency_us = 0.0;  // mean per-cursor build latency
};

/// Best of kReps timed runs of `run`; `reset` (if any) runs untimed before
/// each one.
Measurement Measure(size_t pairs_total, size_t num_queries,
                    const std::function<void()>& run,
                    const std::function<void()>& reset = nullptr) {
  Measurement m;
  m.seconds = 1e100;
  for (size_t rep = 0; rep < kReps; ++rep) {
    if (reset) reset();
    util::WallTimer timer;
    run();
    m.seconds = std::min(m.seconds, timer.ElapsedSeconds());
  }
  m.pairs_per_sec = static_cast<double>(pairs_total) / m.seconds;
  m.build_latency_us = m.seconds / static_cast<double>(num_queries) * 1e6;
  return m;
}

}  // namespace

int Main(int argc, char** argv) {
  size_t vocab = 10000;
  size_t dim = 300;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--vocab") == 0 && i + 1 < argc) {
      vocab = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--dim") == 0 && i + 1 < argc) {
      dim = std::strtoul(argv[++i], nullptr, 10);
    }
  }

  embedding::SyntheticModelSpec spec;
  spec.vocab_size = vocab;
  spec.dim = dim;
  spec.avg_cluster_size = 16.0;
  spec.noise_sigma = 0.35;
  spec.coverage = 1.0;
  spec.seed = 20260730;
  embedding::SyntheticEmbeddingModel model(spec);
  sim::CosineEmbeddingSimilarity cosine(&model.store());

  std::vector<TokenId> vocabulary(vocab);
  for (TokenId t = 0; t < vocab; ++t) vocabulary[t] = t;

  util::Rng rng(7);
  std::vector<TokenId> queries;
  for (size_t i = 0; i < kQueries; ++i) {
    queries.push_back(static_cast<TokenId>(rng.NextBounded(vocab)));
  }
  std::sort(queries.begin(), queries.end());
  queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
  const size_t pairs_total = queries.size() * vocabulary.size();

  std::printf("bench_micro_knn: vocab=%zu dim=%zu alpha=%.2f queries=%zu\n",
              vocab, dim, kAlpha, queries.size());

  // --- scalar (seed path) --------------------------------------------------
  size_t scalar_neighbors = 0;
  const Measurement scalar = Measure(pairs_total, queries.size(), [&] {
    scalar_neighbors = 0;
    for (TokenId q : queries) {
      scalar_neighbors +=
          SeedScalarBuildCursor(cosine, vocabulary, q, kAlpha).size();
    }
  });

  // --- single (per-cursor dense scan + lazy first chunk) -------------------
  sim::ExactKnnIndex index(vocabulary, &cosine);
  const auto cold_cache = [&] { index.ClearCursorCache(); };
  const Measurement single = Measure(
      pairs_total, queries.size(),
      [&] {
        auto session = index.NewSession();
        for (TokenId q : queries) {
          // First probe builds the cursor and orders only the first chunk.
          (void)session->NextNeighbor(q, kAlpha);
        }
      },
      cold_cache);

  // --- batched (serial Prewarm: multi-query blocked kernel) ----------------
  // This is the production path: TokenStream prewarms every query token's
  // cursor at construction.
  const Measurement batched = Measure(
      pairs_total, queries.size(), [&] { index.Prewarm(queries, kAlpha); },
      cold_cache);

  // --- dense matrix-vector reference --------------------------------------
  std::vector<float> dense_out(model.store().covered());
  const size_t dense_pairs = queries.size() * model.store().covered();
  const Measurement dense = Measure(dense_pairs, queries.size(), [&] {
    for (TokenId q : queries) {
      model.store().CosineAllRows(q, std::span<float>(dense_out));
    }
  });

  // --- sanity: batched path returns the same first neighbor ---------------
  size_t mismatches = 0;
  auto session = index.NewSession();
  for (TokenId q : queries) {
    const auto seed_list = SeedScalarBuildCursor(cosine, vocabulary, q, kAlpha);
    const auto got = session->NextNeighbor(q, kAlpha);
    if (seed_list.empty() != !got.has_value()) ++mismatches;
    // The kernel accumulates in a different (vectorized) order than the
    // seed's serial loop, so scores agree to ~1e-15, not bit-for-bit; a
    // top-1 swap is only legitimate between neighbors tied at that scale.
    if (got.has_value() && !seed_list.empty() &&
        std::abs(got->sim - seed_list[0].sim) > 1e-12) {
      ++mismatches;
    }
  }

  const double speedup = batched.pairs_per_sec / scalar.pairs_per_sec;

  std::printf("%-10s %15s %18s %12s\n", "config", "pairs/sec", "cursor-build us",
              "speedup");
  std::printf("%-10s %15.3e %18.1f %12s\n", "scalar", scalar.pairs_per_sec,
              scalar.build_latency_us, "1.0x");
  std::printf("%-10s %15.3e %18.1f %11.1fx\n", "single", single.pairs_per_sec,
              single.build_latency_us, single.pairs_per_sec / scalar.pairs_per_sec);
  std::printf("%-10s %15.3e %18.1f %11.1fx\n", "batched", batched.pairs_per_sec,
              batched.build_latency_us, speedup);
  std::printf("%-10s %15.3e %18.1f %11.1fx\n", "dense-mv", dense.pairs_per_sec,
              dense.build_latency_us, dense.pairs_per_sec / scalar.pairs_per_sec);
  std::printf("scalar neighbors=%zu, first-neighbor mismatches=%zu\n",
              scalar_neighbors, mismatches);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"vocab\": %zu,\n"
                 "  \"dim\": %zu,\n"
                 "  \"alpha\": %.2f,\n"
                 "  \"queries\": %zu,\n"
                 "  \"scalar_pairs_per_sec\": %.6e,\n"
                 "  \"single_cursor_pairs_per_sec\": %.6e,\n"
                 "  \"batched_pairs_per_sec\": %.6e,\n"
                 "  \"dense_mv_pairs_per_sec\": %.6e,\n"
                 "  \"scalar_build_latency_us\": %.3f,\n"
                 "  \"batched_build_latency_us\": %.3f,\n"
                 "  \"batched_speedup\": %.3f,\n"
                 "  \"first_neighbor_mismatches\": %zu\n"
                 "}\n",
                 vocab, dim, kAlpha, queries.size(), scalar.pairs_per_sec,
                 single.pairs_per_sec, batched.pairs_per_sec,
                 dense.pairs_per_sec, scalar.build_latency_us,
                 batched.build_latency_us, speedup, mismatches);
    std::fclose(f);
    std::printf("json written to %s\n", json_path.c_str());
  }

  if (mismatches != 0) return 2;
  return speedup >= 4.0 ? 0 : 3;  // acceptance: >= 4x batched throughput
}

}  // namespace koios

int main(int argc, char** argv) { return koios::Main(argc, argv); }
