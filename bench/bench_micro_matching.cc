// Micro benchmarks (google-benchmark): the kernels whose costs drive the
// paper's complexity discussion — Hungarian matching (O(n³)), the sparse
// shortest-augmenting-path matcher on exact-matching-shaped graphs, the
// greedy matcher (O(E log E)), the early-terminated Hungarian, and the
// token stream.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "koios/matching/greedy.h"
#include "koios/matching/hungarian.h"
#include "koios/matching/sparse_matcher.h"
#include "koios/data/corpus.h"
#include "koios/embedding/synthetic_model.h"
#include "koios/sim/cosine_similarity.h"
#include "koios/sim/exact_knn_index.h"
#include "koios/sim/token_stream.h"
#include "koios/util/rng.h"

namespace koios {
namespace {

struct MicroWorkload {
  data::Corpus corpus;
  std::unique_ptr<embedding::SyntheticEmbeddingModel> model;
  std::unique_ptr<sim::CosineEmbeddingSimilarity> sim;
  std::unique_ptr<sim::ExactKnnIndex> index;
};

MicroWorkload MakeWorkload(size_t vocab) {
  MicroWorkload w;
  data::CorpusSpec spec;
  spec.num_sets = 50;
  spec.vocab_size = vocab;
  spec.size_distribution = data::SizeDistribution::kUniform;
  spec.min_set_size = 20;
  spec.max_set_size = 40;
  spec.seed = 5;
  w.corpus = data::GenerateCorpus(spec);
  embedding::SyntheticModelSpec ms;
  ms.vocab_size = vocab;
  ms.dim = 32;
  ms.seed = 6;
  w.model = std::make_unique<embedding::SyntheticEmbeddingModel>(ms);
  w.sim = std::make_unique<sim::CosineEmbeddingSimilarity>(&w.model->store());
  w.index = std::make_unique<sim::ExactKnnIndex>(w.corpus.vocabulary, w.sim.get());
  return w;
}

matching::WeightMatrix RandomMatrix(size_t n, double density, uint64_t seed) {
  util::Rng rng(seed);
  matching::WeightMatrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (rng.NextBool(density)) m.At(i, j) = 0.5 + 0.5 * rng.NextDouble();
    }
  }
  return m;
}

void BM_Hungarian(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto m = RandomMatrix(n, 0.2, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::HungarianMatcher::Solve(m));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_Hungarian)->RangeMultiplier(2)->Range(16, 256)->Complexity();

void BM_HungarianEarlyTerminated(benchmark::State& state) {
  // A threshold far above the optimum: termination fires on the first dual
  // check, modeling the filter's best case.
  const size_t n = static_cast<size_t>(state.range(0));
  const auto m = RandomMatrix(n, 0.2, 43);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        matching::HungarianMatcher::Solve(m, /*prune_threshold=*/1e9));
  }
}
BENCHMARK(BM_HungarianEarlyTerminated)->RangeMultiplier(2)->Range(16, 256);

// A graph shaped like the ones post-processing verifies: rows x cols after
// dropping nodes without an α-edge, about 3% of the entries α-edges with
// weights in [0.7, 1), every row and column incident to at least one.
matching::WeightMatrix EmGraph(size_t rows, size_t cols, uint64_t seed) {
  util::Rng rng(seed);
  matching::WeightMatrix m(rows, cols);
  auto edge = [&] { return 0.7 + 0.3 * rng.NextDouble(); };
  std::vector<char> col_used(cols, 0);
  for (size_t i = 0; i < rows; ++i) {
    bool any = false;
    for (size_t j = 0; j < cols; ++j) {
      if (!rng.NextBool(0.03)) continue;
      m.At(i, j) = edge();
      col_used[j] = 1;
      any = true;
    }
    if (!any) {
      const size_t j = rng.NextBounded(cols);
      m.At(i, j) = edge();
      col_used[j] = 1;
    }
  }
  for (size_t j = 0; j < cols; ++j) {
    if (!col_used[j]) m.At(rng.NextBounded(rows), j) = edge();
  }
  return m;
}

// The measured exact-matching shapes: the opendata-em median (61x153) and
// a larger query (128x300).
void EmGraphShapes(benchmark::internal::Benchmark* b) {
  b->Args({61, 153})->Args({128, 300});
}

void BM_EmGraphHungarian(benchmark::State& state) {
  const auto m = EmGraph(static_cast<size_t>(state.range(0)),
                         static_cast<size_t>(state.range(1)), 45);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::HungarianMatcher::Solve(m));
  }
}
BENCHMARK(BM_EmGraphHungarian)->Apply(EmGraphShapes);

void BM_EmGraphSparse(benchmark::State& state) {
  const auto m = EmGraph(static_cast<size_t>(state.range(0)),
                         static_cast<size_t>(state.range(1)), 45);
  matching::SparseMatcher matcher;  // warm across iterations, as per thread
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.Solve(m));
  }
}
BENCHMARK(BM_EmGraphSparse)->Apply(EmGraphShapes);

void BM_GreedyMatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto m = RandomMatrix(n, 0.2, 44);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::GreedyMatch(m));
  }
}
BENCHMARK(BM_GreedyMatch)->RangeMultiplier(2)->Range(16, 256);

void BM_TokenStream(benchmark::State& state) {
  auto w = MakeWorkload(static_cast<size_t>(state.range(0)));
  const auto query_span = w.corpus.sets.Tokens(0);
  std::vector<TokenId> query(query_span.begin(), query_span.end());
  for (auto _ : state) {
    sim::TokenStream stream(query, *w.index, 0.7,
                            [](TokenId) { return true; });
    size_t tuples = 0;
    while (stream.Next()) ++tuples;
    benchmark::DoNotOptimize(tuples);
  }
}
BENCHMARK(BM_TokenStream)->Arg(1000)->Arg(4000);

}  // namespace
}  // namespace koios

BENCHMARK_MAIN();
