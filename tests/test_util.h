// Shared fixtures for the Koios test suite: tiny hand-built repositories,
// synthetic random workloads, and the brute-force oracle every exactness
// test compares against.
#ifndef KOIOS_TESTS_TEST_UTIL_H_
#define KOIOS_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "koios/data/corpus.h"
#include "koios/embedding/synthetic_model.h"
#include "koios/index/set_collection.h"
#include "koios/matching/semantic_overlap.h"
#include "koios/sim/cosine_similarity.h"
#include "koios/sim/exact_knn_index.h"
#include "koios/sim/similarity.h"
#include "koios/util/types.h"

namespace koios::testing {

/// A similarity function defined by an explicit table (symmetric closure is
/// applied; unlisted pairs are 0; identical tokens are 1). Lets tests pin
/// exact edge weights, e.g. the paper's Fig. 1 worked example.
class TableSimilarity : public sim::SimilarityFunction {
 public:
  void Set(TokenId a, TokenId b, Score s) {
    table_.push_back({a, b, s});
  }

  Score Similarity(TokenId a, TokenId b) const override {
    if (a == b) return 1.0;
    for (const auto& e : table_) {
      if ((e.a == a && e.b == b) || (e.a == b && e.b == a)) return e.s;
    }
    return 0.0;
  }

 private:
  struct Entry {
    TokenId a, b;
    Score s;
  };
  std::vector<Entry> table_;
};

/// Brute-force oracle: exact SO of the query against *every* set, sorted
/// non-increasing. Independent code path from the Koios engine (similarity
/// function directly, no stream / cache / filters).
inline std::vector<std::pair<SetId, Score>> OracleRanking(
    const index::SetCollection& sets, std::span<const TokenId> query,
    const sim::SimilarityFunction& sim, Score alpha) {
  std::vector<std::pair<SetId, Score>> ranking;
  for (SetId id = 0; id < sets.size(); ++id) {
    const Score so =
        matching::SemanticOverlap(query, sets.Tokens(id), sim, alpha);
    if (so > 0.0) ranking.emplace_back(id, so);
  }
  std::sort(ranking.begin(), ranking.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  return ranking;
}

/// θ*k of the oracle ranking (0 when fewer than k positive sets exist).
inline Score OracleKthScore(
    const std::vector<std::pair<SetId, Score>>& ranking, size_t k) {
  if (ranking.empty()) return 0.0;
  const size_t idx = std::min(k, ranking.size()) - 1;
  return ranking[idx].second;
}

/// A neighbor index whose probe sessions cannot be opened: stands in for a
/// faulty similarity backend, so every search over it throws
/// std::runtime_error carrying kMessage.
class ThrowingIndex : public sim::SimilarityIndex {
 public:
  static constexpr const char* kMessage = "similarity backend failed";
  std::unique_ptr<sim::ProbeSession> NewSession() const override {
    throw std::runtime_error(kMessage);
  }
};

/// A ready-to-search random workload: synthetic embeddings + corpus +
/// cosine similarity + exact index.
struct RandomWorkload {
  data::Corpus corpus;
  std::unique_ptr<embedding::SyntheticEmbeddingModel> model;
  std::unique_ptr<sim::CosineEmbeddingSimilarity> sim;
  std::unique_ptr<sim::ExactKnnIndex> index;
};

inline RandomWorkload MakeRandomWorkload(size_t num_sets, size_t vocab,
                                         size_t min_size, size_t max_size,
                                         uint64_t seed,
                                         double coverage = 0.9) {
  RandomWorkload w;
  data::CorpusSpec spec;
  spec.name = "test";
  spec.num_sets = num_sets;
  spec.vocab_size = vocab;
  spec.element_skew = 0.8;
  spec.size_distribution = data::SizeDistribution::kUniform;
  spec.min_set_size = min_size;
  spec.max_set_size = max_size;
  spec.seed = seed;
  w.corpus = data::GenerateCorpus(spec);

  embedding::SyntheticModelSpec model_spec;
  model_spec.vocab_size = vocab;
  model_spec.dim = 32;
  model_spec.avg_cluster_size = 6.0;
  model_spec.noise_sigma = 0.4;
  model_spec.coverage = coverage;
  model_spec.seed = seed + 1;
  w.model = std::make_unique<embedding::SyntheticEmbeddingModel>(model_spec);
  w.sim = std::make_unique<sim::CosineEmbeddingSimilarity>(&w.model->store());
  w.index = std::make_unique<sim::ExactKnnIndex>(w.corpus.vocabulary,
                                                 w.sim.get());
  return w;
}

}  // namespace koios::testing

#endif  // KOIOS_TESTS_TEST_UTIL_H_
