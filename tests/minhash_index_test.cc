// Tests for the MinHash-LSH index: its collision curve, its recall against
// exact kNN, its stream order and a Koios search over its stream.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "koios/core/searcher.h"
#include "koios/data/string_corpus.h"
#include "koios/sim/exact_knn_index.h"
#include "koios/sim/jaccard_qgram_similarity.h"
#include "koios/sim/minhash_index.h"

namespace koios::core {
namespace {

TEST(MinHashIndexTest, CollisionProbabilityShape) {
  data::StringCorpusSpec spec;
  spec.num_sets = 10;
  spec.num_base_words = 50;
  data::StringCorpus corpus = data::GenerateStringCorpus(spec);
  sim::JaccardQGramSimilarity jaccard(&corpus.dict, 3);
  sim::MinHashIndexSpec mh;
  mh.num_bands = 16;
  mh.rows_per_band = 4;
  sim::MinHashIndex index(corpus.vocabulary, &jaccard, mh);
  // The S-curve must be monotone with the expected endpoints.
  EXPECT_LT(index.CollisionProbability(0.1), 0.1);
  EXPECT_GT(index.CollisionProbability(0.9), 0.99);
  EXPECT_LT(index.CollisionProbability(0.3), index.CollisionProbability(0.6));
}

TEST(MinHashIndexTest, FindsTypoVariantsWithHighRecall) {
  data::StringCorpusSpec spec;
  spec.num_sets = 50;
  spec.num_base_words = 200;
  spec.typos_per_word = 2;
  spec.seed = 77;
  data::StringCorpus corpus = data::GenerateStringCorpus(spec);
  sim::JaccardQGramSimilarity jaccard(&corpus.dict, 3);
  sim::ExactKnnIndex exact(corpus.vocabulary, &jaccard);
  sim::MinHashIndexSpec mh;
  mh.num_bands = 32;
  mh.rows_per_band = 3;
  sim::MinHashIndex minhash(corpus.vocabulary, &jaccard, mh);

  size_t exact_total = 0, found = 0;
  for (size_t i = 0; i < 20 && i < corpus.vocabulary.size(); ++i) {
    const TokenId q = corpus.vocabulary[i * 3 % corpus.vocabulary.size()];
    std::set<TokenId> truth;
    auto exact_session = exact.NewSession();
    while (auto n = exact_session->NextNeighbor(q, 0.5)) truth.insert(n->token);
    auto minhash_session = minhash.NewSession();
    while (auto n = minhash_session->NextNeighbor(q, 0.5)) {
      found += truth.count(n->token);
    }
    exact_total += truth.size();
  }
  ASSERT_GT(exact_total, 0u);
  EXPECT_GE(static_cast<double>(found) / static_cast<double>(exact_total), 0.7)
      << found << "/" << exact_total;
}

TEST(MinHashIndexTest, DescendingOrderAndAlphaCutoff) {
  data::StringCorpusSpec spec;
  spec.num_sets = 30;
  spec.num_base_words = 100;
  data::StringCorpus corpus = data::GenerateStringCorpus(spec);
  sim::JaccardQGramSimilarity jaccard(&corpus.dict, 3);
  sim::MinHashIndex index(corpus.vocabulary, &jaccard, {});
  auto session = index.NewSession();
  Score prev = 1.0;
  while (auto n = session->NextNeighbor(corpus.vocabulary[0], 0.4)) {
    EXPECT_LE(n->sim, prev + 1e-12);
    EXPECT_GE(n->sim, 0.4);
    prev = n->sim;
  }
}

TEST(MinHashIndexTest, KoiosRunsOnMinHashStream) {
  // Full engine over the approximate index: results must be valid sets
  // with exact scores (exact w.r.t. the neighbors the index returned).
  data::StringCorpusSpec spec;
  spec.num_sets = 80;
  spec.num_base_words = 200;
  spec.seed = 5;
  data::StringCorpus corpus = data::GenerateStringCorpus(spec);
  sim::JaccardQGramSimilarity jaccard(&corpus.dict, 3);
  sim::MinHashIndexSpec mh;
  mh.num_bands = 24;
  mh.rows_per_band = 3;
  sim::MinHashIndex minhash(corpus.vocabulary, &jaccard, mh);
  KoiosSearcher searcher(&corpus.sets, &minhash);
  SearchParams params;
  params.k = 5;
  params.alpha = 0.5;
  std::vector<TokenId> q(corpus.sets.Tokens(2).begin(),
                         corpus.sets.Tokens(2).end());
  const auto result = searcher.Search(q, params);
  ASSERT_FALSE(result.topk.empty());
  EXPECT_EQ(result.topk[0].set, 2u);  // self-match flows via vocabulary
  EXPECT_NEAR(result.topk[0].score, static_cast<Score>(q.size()), 1e-6);
}

}  // namespace
}  // namespace koios::core
