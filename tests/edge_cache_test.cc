// Unit tests for the materialized stream / similarity cache.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "koios/core/edge_cache.h"
#include "koios/index/inverted_index.h"
#include "koios/matching/hungarian.h"
#include "koios/sim/exact_knn_index.h"
#include "koios/sim/token_stream.h"
#include "test_util.h"

namespace koios::core {
namespace {

TEST(EdgeCacheTest, PreservesStreamOrder) {
  auto w = testing::MakeRandomWorkload(40, 200, 5, 15, 9001);
  const auto qs = w.corpus.sets.Tokens(0);
  std::vector<TokenId> q(qs.begin(), qs.end());
  sim::TokenStream stream(q, *w.index, 0.75,
                          [](TokenId) { return true; });
  EdgeCache cache(&stream);
  Score prev = 1.0;
  for (const auto& tuple : cache.tuples()) {
    EXPECT_LE(tuple.sim, prev + 1e-12);
    prev = tuple.sim;
  }
  EXPECT_EQ(stream.emitted(), cache.tuples().size());
}

TEST(EdgeCacheTest, EdgesGroupedByToken) {
  auto w = testing::MakeRandomWorkload(40, 200, 5, 15, 9002);
  const auto qs = w.corpus.sets.Tokens(1);
  std::vector<TokenId> q(qs.begin(), qs.end());
  sim::TokenStream stream(q, *w.index, 0.75,
                          [](TokenId) { return true; });
  EdgeCache cache(&stream);
  size_t total_edges = 0;
  for (const auto& tuple : cache.tuples()) {
    bool found = false;
    for (const auto& edge : cache.EdgesOf(tuple.token)) {
      if (edge.query_pos == tuple.query_pos) {
        EXPECT_DOUBLE_EQ(edge.sim, tuple.sim);
        found = true;
      }
    }
    EXPECT_TRUE(found);
    (void)total_edges;
  }
  EXPECT_TRUE(cache.EdgesOf(static_cast<TokenId>(12345678)).empty());
}

TEST(EdgeCacheTest, BuildMatrixRestrictsToIncidentNodes) {
  testing::TableSimilarity sim;
  sim.Set(0, 100, 0.9);
  sim.Set(2, 101, 0.8);
  sim::ExactKnnIndex index({100, 101, 102}, &sim);
  sim::TokenStream stream({0, 1, 2}, index, 0.7,
                          [](TokenId) { return false; });
  EdgeCache cache(&stream);
  std::vector<uint32_t> rows, cols;
  const std::vector<TokenId> candidate = {100, 101, 102};
  const auto m = cache.BuildMatrix(candidate, &rows, &cols);
  // Query position 1 and candidate token 102 have no edges: excluded.
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(rows[0], 0u);
  EXPECT_EQ(rows[1], 2u);
  EXPECT_NEAR(m.At(0, 0), 0.9, 1e-12);
  EXPECT_NEAR(m.At(1, 1), 0.8, 1e-12);
  EXPECT_NEAR(m.At(0, 1), 0.0, 1e-12);
}

TEST(EdgeCacheTest, BuildMatrixEmptyForUnrelatedSet) {
  testing::TableSimilarity sim;
  sim::ExactKnnIndex index({100}, &sim);
  sim::TokenStream stream({0}, index, 0.7, [](TokenId) { return false; });
  EdgeCache cache(&stream);
  std::vector<uint32_t> rows, cols;
  const std::vector<TokenId> candidate = {100};
  const auto m = cache.BuildMatrix(candidate, &rows, &cols);
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(EdgeCacheTest, MatrixScoreMatchesDirectOracle) {
  // Matching on cache-built matrices == matching on directly-built graphs.
  auto w = testing::MakeRandomWorkload(60, 300, 5, 15, 9003);
  index::InvertedIndex inverted(w.corpus.sets);
  const auto qs = w.corpus.sets.Tokens(2);
  std::vector<TokenId> q(qs.begin(), qs.end());
  const Score alpha = 0.75;
  sim::TokenStream stream(q, *w.index, alpha, [&](TokenId t) {
    return inverted.InVocabulary(t);
  });
  EdgeCache cache(&stream);
  for (SetId id = 0; id < 30; ++id) {
    std::vector<uint32_t> rows, cols;
    const auto m = cache.BuildMatrix(w.corpus.sets.Tokens(id), &rows, &cols);
    const Score via_cache = matching::HungarianMatcher::Solve(m).score;
    const Score direct = matching::SemanticOverlap(
        q, w.corpus.sets.Tokens(id), *w.sim, alpha);
    EXPECT_NEAR(via_cache, direct, 1e-9) << "set " << id;
  }
}

TEST(EdgeCacheTest, ProducesOnDemandAndSeals) {
  // The consumer's NextTuples pulls production along; FinishProduction
  // seals, and the pulls observe the exact sequence a drained cache
  // produces.
  auto w = testing::MakeRandomWorkload(50, 250, 5, 15, 9006);
  const auto qs = w.corpus.sets.Tokens(2);
  std::vector<TokenId> q(qs.begin(), qs.end());
  std::vector<sim::StreamTuple> want;
  {
    sim::TokenStream stream(q, *w.index, 0.7,
                            [](TokenId) { return true; });
    EdgeCache sync_cache(&stream);
    want = sync_cache.tuples();
  }
  sim::TokenStream stream(q, *w.index, 0.7, [](TokenId) { return true; });
  EdgeCache cache(&stream, /*completer=*/nullptr);
  EXPECT_FALSE(cache.Materialized());
  std::vector<sim::StreamTuple> seen;
  std::vector<sim::StreamTuple> buf(5);
  size_t from = 0;
  while (const size_t n =
             cache.NextTuples(from, std::span<sim::StreamTuple>(buf))) {
    seen.insert(seen.end(), buf.begin(), buf.begin() + n);
    from += n;
  }
  cache.FinishProduction();
  ASSERT_TRUE(cache.Materialized());
  EXPECT_TRUE(cache.ExhaustedToAlpha());
  EXPECT_DOUBLE_EQ(cache.stop_sim(), 0.0);
  EXPECT_EQ(cache.produced(), want.size());
  ASSERT_EQ(seen.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(seen[i].token, want[i].token) << i;
    EXPECT_DOUBLE_EQ(seen[i].sim, want[i].sim) << i;
  }
}

TEST(EdgeCacheTest, SealsEarlyWithSlack) {
  // A consumer that stops pulling mid-stream seals the cache with a sound
  // slack: the recorded stop similarity bounds every unproduced pair.
  auto w = testing::MakeRandomWorkload(50, 250, 5, 15, 9007);
  const auto qs = w.corpus.sets.Tokens(4);
  std::vector<TokenId> q(qs.begin(), qs.end());
  std::vector<sim::StreamTuple> full;
  {
    sim::TokenStream stream(q, *w.index, 0.7,
                            [](TokenId) { return true; });
    EdgeCache sync_cache(&stream);
    full = sync_cache.tuples();
  }
  ASSERT_GT(full.size(), 8u);
  sim::TokenStream stream(q, *w.index, 0.7, [](TokenId) { return true; });
  EdgeCache cache(&stream, /*completer=*/nullptr);
  std::vector<sim::StreamTuple> buf(8);
  ASSERT_EQ(cache.NextTuples(0, std::span<sim::StreamTuple>(buf)), 8u);
  cache.FinishProduction();
  ASSERT_TRUE(cache.Materialized());
  EXPECT_FALSE(cache.ExhaustedToAlpha());
  for (size_t i = cache.produced(); i < full.size(); ++i) {
    EXPECT_LE(full[i].sim, cache.stop_sim() + 1e-12) << i;
  }
}

TEST(EdgeCacheTest, SelfMatchEdgesPresentForVocabularyTokens) {
  auto w = testing::MakeRandomWorkload(30, 150, 5, 12, 9004);
  index::InvertedIndex inverted(w.corpus.sets);
  const auto qs = w.corpus.sets.Tokens(0);
  std::vector<TokenId> q(qs.begin(), qs.end());
  sim::TokenStream stream(q, *w.index, 0.8, [&](TokenId t) {
    return inverted.InVocabulary(t);
  });
  EdgeCache cache(&stream);
  for (uint32_t pos = 0; pos < q.size(); ++pos) {
    bool has_self = false;
    for (const auto& edge : cache.EdgesOf(q[pos])) {
      has_self |= (edge.query_pos == pos && edge.sim == 1.0);
    }
    EXPECT_TRUE(has_self) << "query pos " << pos;
  }
}

}  // namespace
}  // namespace koios::core
