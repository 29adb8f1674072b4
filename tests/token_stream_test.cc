#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "koios/sim/exact_knn_index.h"
#include "koios/sim/token_stream.h"
#include "test_util.h"

namespace koios::sim {
namespace {

// --------------------------------------------------------- ExactKnnIndex --

TEST(ExactKnnIndexTest, ReturnsNeighborsDescending) {
  testing::TableSimilarity sim;
  sim.Set(0, 1, 0.9);
  sim.Set(0, 2, 0.95);
  sim.Set(0, 3, 0.85);
  ExactKnnIndex index({1, 2, 3, 4}, &sim);
  auto session = index.NewSession();
  auto n1 = session->NextNeighbor(0, 0.8);
  auto n2 = session->NextNeighbor(0, 0.8);
  auto n3 = session->NextNeighbor(0, 0.8);
  auto n4 = session->NextNeighbor(0, 0.8);
  ASSERT_TRUE(n1 && n2 && n3);
  EXPECT_EQ(n1->token, 2u);
  EXPECT_EQ(n2->token, 1u);
  EXPECT_EQ(n3->token, 3u);
  EXPECT_FALSE(n4.has_value());  // token 4 below alpha
}

TEST(ExactKnnIndexTest, RespectsAlphaCutoff) {
  testing::TableSimilarity sim;
  sim.Set(0, 1, 0.79);
  ExactKnnIndex index({1}, &sim);
  EXPECT_FALSE(index.NewSession()->NextNeighbor(0, 0.8).has_value());
  EXPECT_TRUE(index.NewSession()->NextNeighbor(0, 0.5).has_value());
}

TEST(ExactKnnIndexTest, NeverReturnsQueryItself) {
  testing::TableSimilarity sim;
  ExactKnnIndex index({0, 1}, &sim);
  auto n = index.NewSession()->NextNeighbor(0, 0.5);
  EXPECT_FALSE(n.has_value());  // only potential match is self
}

TEST(ExactKnnIndexTest, FreshSessionRestartsStreams) {
  testing::TableSimilarity sim;
  sim.Set(0, 1, 0.9);
  ExactKnnIndex index({1}, &sim);
  auto session = index.NewSession();
  EXPECT_TRUE(session->NextNeighbor(0, 0.8).has_value());
  EXPECT_FALSE(session->NextNeighbor(0, 0.8).has_value());
  EXPECT_TRUE(index.NewSession()->NextNeighbor(0, 0.8).has_value());
}

// ------------------------------------------------------------ TokenStream --

TEST(TokenStreamTest, EmitsSelfMatchesFirst) {
  testing::TableSimilarity sim;
  sim.Set(0, 5, 0.9);
  ExactKnnIndex index({0, 1, 5}, &sim);
  TokenStream stream({0, 1}, index, 0.8, [](TokenId) { return true; });
  auto t1 = stream.Next();
  auto t2 = stream.Next();
  ASSERT_TRUE(t1 && t2);
  EXPECT_DOUBLE_EQ(t1->sim, 1.0);
  EXPECT_DOUBLE_EQ(t2->sim, 1.0);
  EXPECT_EQ(t1->query_token, t1->token);
  EXPECT_EQ(t2->query_token, t2->token);
}

TEST(TokenStreamTest, NonIncreasingSimilarityOrder) {
  auto w = testing::MakeRandomWorkload(50, 300, 5, 20, 77);
  const auto query_span = w.corpus.sets.Tokens(0);
  std::vector<TokenId> query(query_span.begin(), query_span.end());
  TokenStream stream(query, *w.index, 0.7,
                     [](TokenId) { return true; });
  Score prev = 1.0;
  size_t count = 0;
  while (auto t = stream.Next()) {
    EXPECT_LE(t->sim, prev + 1e-12);
    EXPECT_GE(t->sim, 0.7);
    prev = t->sim;
    ++count;
  }
  EXPECT_GE(count, query.size());  // at least the self matches
}

TEST(TokenStreamTest, SkipsSelfMatchForOutOfVocabularyTokens) {
  testing::TableSimilarity sim;
  ExactKnnIndex index({1, 2}, &sim);
  // Token 99 not in vocabulary: no self-match, no neighbors.
  TokenStream stream({99}, index, 0.8, [](TokenId t) { return t < 10; });
  EXPECT_FALSE(stream.Next().has_value());
}

TEST(TokenStreamTest, CoversAllPairsAboveAlpha) {
  // Exhausting the stream must emit every (q, t) pair with sim >= alpha.
  auto w = testing::MakeRandomWorkload(40, 200, 5, 15, 99);
  const auto query_span = w.corpus.sets.Tokens(1);
  std::vector<TokenId> query(query_span.begin(), query_span.end());
  const Score alpha = 0.75;
  TokenStream stream(query, *w.index, alpha, [&](TokenId t) {
    return std::binary_search(w.corpus.vocabulary.begin(),
                              w.corpus.vocabulary.end(), t);
  });
  std::set<std::pair<uint32_t, TokenId>> emitted;
  while (auto t = stream.Next()) {
    EXPECT_TRUE(emitted.emplace(t->query_pos, t->token).second)
        << "duplicate tuple";
  }
  for (uint32_t qi = 0; qi < query.size(); ++qi) {
    for (TokenId t : w.corpus.vocabulary) {
      const bool is_self = t == query[qi];
      const Score s = is_self ? 1.0 : w.sim->Similarity(query[qi], t);
      if (s >= alpha && (is_self || t != query[qi])) {
        if (is_self || s >= alpha) {
          const bool found = emitted.count({qi, t}) > 0;
          if (is_self) {
            EXPECT_TRUE(found) << "missing self tuple q=" << qi;
          } else {
            EXPECT_TRUE(found) << "missing tuple q=" << qi << " t=" << t;
          }
        }
      }
    }
  }
}

TEST(TokenStreamTest, StreamsOverOneIndexAreIndependent) {
  // Each stream opens its own probe session, so two streams interleaved
  // over one index emit exactly what each emits alone.
  auto w = testing::MakeRandomWorkload(50, 300, 5, 20, 78);
  const auto span = w.corpus.sets.Tokens(0);
  const std::vector<TokenId> query(span.begin(), span.end());
  auto in_vocab = [](TokenId) { return true; };
  std::vector<StreamTuple> alone;
  TokenStream reference(query, *w.index, 0.7, in_vocab);
  while (auto t = reference.Next()) alone.push_back(*t);

  TokenStream a(query, *w.index, 0.7, in_vocab);
  TokenStream b(query, *w.index, 0.7, in_vocab);
  for (const StreamTuple& want : alone) {
    for (TokenStream* stream : {&a, &b}) {
      const auto got = stream->Next();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->query_pos, want.query_pos);
      EXPECT_EQ(got->token, want.token);
      EXPECT_EQ(got->sim, want.sim);
    }
  }
  EXPECT_FALSE(a.Next().has_value());
  EXPECT_FALSE(b.Next().has_value());
}

TEST(TokenStreamTest, DrainedStreamHasNothingToPeek) {
  testing::TableSimilarity sim;
  sim.Set(0, 1, 0.9);
  ExactKnnIndex index({0, 1}, &sim);
  TokenStream stream({0}, index, 0.8, [](TokenId) { return true; });
  while (stream.Next()) {
  }
  EXPECT_FALSE(stream.PeekSim().has_value());
}

TEST(TokenStreamTest, EmittedCountTracksTuples) {
  testing::TableSimilarity sim;
  sim.Set(0, 1, 0.9);
  ExactKnnIndex index({0, 1}, &sim);
  TokenStream stream({0}, index, 0.8, [](TokenId) { return true; });
  EXPECT_EQ(stream.emitted(), 0u);
  while (stream.Next()) {
  }
  EXPECT_EQ(stream.emitted(), 2u);  // self + neighbor
}

}  // namespace
}  // namespace koios::sim
