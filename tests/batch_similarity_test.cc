// Tests for the batched neighbor-generation path (ISSUE 1): kernel parity
// between the batched/multi-query cosine paths and the pairwise reference,
// lazy chunked cursor ordering, the α-keyed cursor cache, and parallel
// prewarm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "koios/data/string_corpus.h"
#include "koios/embedding/embedding_store.h"
#include "koios/embedding/synthetic_model.h"
#include "koios/sim/cosine_similarity.h"
#include "koios/sim/exact_knn_index.h"
#include "koios/sim/jaccard_qgram_similarity.h"
#include "koios/sim/similarity.h"
#include "koios/util/rng.h"
#include "test_util.h"

namespace koios::sim {
namespace {

embedding::SyntheticModelSpec SmallSpec() {
  embedding::SyntheticModelSpec spec;
  spec.vocab_size = 400;
  spec.dim = 48;
  spec.avg_cluster_size = 10.0;
  spec.noise_sigma = 0.4;
  spec.coverage = 0.85;  // leave OOV tokens so the kNoRow paths run
  spec.seed = 99;
  return spec;
}

std::vector<TokenId> FullVocabulary(size_t n) {
  std::vector<TokenId> vocab(n);
  for (TokenId t = 0; t < n; ++t) vocab[t] = t;
  return vocab;
}

// ------------------------------------------------------------ kernel parity --

TEST(BatchCosineTest, CosineBatchMatchesPairwiseCosine) {
  embedding::SyntheticEmbeddingModel model(SmallSpec());
  const auto& store = model.store();
  const auto vocab = FullVocabulary(model.spec().vocab_size);

  std::vector<double> batch(vocab.size());
  for (TokenId q : {TokenId{0}, TokenId{17}, TokenId{399}}) {
    store.CosineBatch(q, vocab, std::span<double>(batch));
    for (size_t i = 0; i < vocab.size(); ++i) {
      const double reference = store.Cosine(q, vocab[i]);
      EXPECT_NEAR(batch[i], reference, 1e-12) << "q=" << q << " t=" << vocab[i];
    }
  }
}

TEST(BatchCosineTest, CosineBatchZeroForOovQuery) {
  embedding::SyntheticEmbeddingModel model(SmallSpec());
  const auto& store = model.store();
  // Find an OOV token (coverage < 1 guarantees one exists).
  TokenId oov = kInvalidToken;
  for (TokenId t = 0; t < model.spec().vocab_size; ++t) {
    if (!store.Has(t)) {
      oov = t;
      break;
    }
  }
  ASSERT_NE(oov, kInvalidToken);
  const auto vocab = FullVocabulary(model.spec().vocab_size);
  std::vector<double> batch(vocab.size(), 123.0);
  store.CosineBatch(oov, vocab, std::span<double>(batch));
  for (double s : batch) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(BatchCosineTest, CosineAllRowsMatchesPairwise) {
  embedding::SyntheticEmbeddingModel model(SmallSpec());
  const auto& store = model.store();
  std::vector<double> dense(store.covered());
  TokenId q = kInvalidToken;
  for (TokenId t = 0; t < model.spec().vocab_size; ++t) {
    if (store.Has(t)) {
      q = t;
      break;
    }
  }
  ASSERT_NE(q, kInvalidToken);
  store.CosineAllRows(q, std::span<double>(dense));
  for (TokenId t = 0; t < model.spec().vocab_size; ++t) {
    const uint32_t row = store.RowIndexOf(t);
    if (row == embedding::EmbeddingStore::kNoRow) continue;
    EXPECT_NEAR(dense[row], store.Cosine(q, t), 1e-12);
  }
}

TEST(BatchSimilarityTest, SimilarityBatchMatchesPairwiseAcrossRandomVocab) {
  embedding::SyntheticEmbeddingModel model(SmallSpec());
  CosineEmbeddingSimilarity sim(&model.store());
  const auto vocab = FullVocabulary(model.spec().vocab_size);

  util::Rng rng(5);
  std::vector<double> batch(vocab.size());
  for (int rep = 0; rep < 8; ++rep) {
    const TokenId q =
        static_cast<TokenId>(rng.NextBounded(model.spec().vocab_size));
    sim.SimilarityBatch(q, vocab, std::span<double>(batch));
    for (size_t i = 0; i < vocab.size(); ++i) {
      EXPECT_NEAR(batch[i], sim.Similarity(q, vocab[i]), 1e-6)
          << "q=" << q << " t=" << vocab[i];
    }
  }
}

TEST(BatchSimilarityTest, SimilarityBatchMultiMatchesPerQueryRows) {
  embedding::SyntheticEmbeddingModel model(SmallSpec());
  CosineEmbeddingSimilarity sim(&model.store());
  const auto vocab = FullVocabulary(model.spec().vocab_size);

  // 7 queries: exercises one full 4-block plus a 3-remainder in the multi
  // kernel, plus an OOV query row.
  std::vector<TokenId> queries = {0, 1, 17, 42, 101, 254, 399};
  std::vector<double> multi(queries.size() * vocab.size());
  sim.SimilarityBatchMulti(queries, vocab, std::span<double>(multi));
  std::vector<double> row(vocab.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    sim.SimilarityBatch(queries[qi], vocab, std::span<double>(row));
    for (size_t i = 0; i < vocab.size(); ++i) {
      // Both paths share the same accumulation shape: bit-identical.
      EXPECT_DOUBLE_EQ(multi[qi * vocab.size() + i], row[i])
          << "q=" << queries[qi] << " t=" << vocab[i];
    }
  }
}

TEST(BatchSimilarityTest, JaccardBatchMultiMatchesPairwise) {
  // The gram-id inverted-list multi kernel must divide the same integer
  // counts as the pairwise merge: exactly equal, not approximately.
  data::StringCorpusSpec spec;
  spec.num_sets = 40;
  spec.num_base_words = 150;
  spec.typos_per_word = 2;
  spec.seed = 77;
  data::StringCorpus corpus = data::GenerateStringCorpus(spec);
  JaccardQGramSimilarity jaccard(&corpus.dict, 3);

  std::vector<TokenId> queries, targets;
  for (size_t i = 0; i < corpus.vocabulary.size(); i += 11) {
    queries.push_back(corpus.vocabulary[i]);
  }
  for (size_t i = 0; i < corpus.vocabulary.size(); i += 3) {
    targets.push_back(corpus.vocabulary[i]);
  }
  ASSERT_FALSE(queries.empty());
  ASSERT_FALSE(targets.empty());
  std::vector<double> multi(queries.size() * targets.size());
  jaccard.SimilarityBatchMulti(queries, targets, std::span<double>(multi));
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (size_t ti = 0; ti < targets.size(); ++ti) {
      EXPECT_DOUBLE_EQ(multi[qi * targets.size() + ti],
                       jaccard.Similarity(queries[qi], targets[ti]))
          << "q=" << queries[qi] << " t=" << targets[ti];
    }
  }
}

TEST(BatchSimilarityTest, DefaultFallbackMatchesPairwise) {
  // A similarity WITHOUT a batch override must keep working through the
  // default pairwise fallbacks.
  testing::TableSimilarity table;
  table.Set(1, 2, 0.8);
  table.Set(1, 3, 0.5);
  const std::vector<TokenId> targets = {1, 2, 3, 4};
  std::vector<double> batch(targets.size());
  table.SimilarityBatch(1, targets, std::span<double>(batch));
  EXPECT_DOUBLE_EQ(batch[0], 1.0);
  EXPECT_DOUBLE_EQ(batch[1], 0.8);
  EXPECT_DOUBLE_EQ(batch[2], 0.5);
  EXPECT_DOUBLE_EQ(batch[3], 0.0);

  std::vector<double> multi(2 * targets.size());
  const std::vector<TokenId> queries = {1, 4};
  table.SimilarityBatchMulti(queries, targets, std::span<double>(multi));
  EXPECT_DOUBLE_EQ(multi[0], 1.0);
  EXPECT_DOUBLE_EQ(multi[1], 0.8);
  EXPECT_DOUBLE_EQ(multi[7], 1.0);  // (q=4, t=4)
}

// ------------------------------------------------------- lazy cursor order --

TEST(LazyCursorTest, FullConsumptionEqualsEagerFullSort) {
  // Parameters chosen so some query has well over kSortChunk (64) neighbors
  // above α — the lazy path must cross several chunk boundaries.
  embedding::SyntheticModelSpec spec;
  spec.vocab_size = 1200;
  spec.dim = 16;  // low dimension => heavier cross-cluster similarity mass
  spec.avg_cluster_size = 80.0;
  spec.noise_sigma = 0.5;
  spec.coverage = 1.0;
  spec.seed = 1234;
  embedding::SyntheticEmbeddingModel model(spec);
  CosineEmbeddingSimilarity sim(&model.store());
  const auto vocab = FullVocabulary(spec.vocab_size);
  const Score alpha = 0.2;

  ExactKnnIndex index(vocab, &sim);
  size_t max_neighbors = 0;
  for (TokenId q : {TokenId{5}, TokenId{200}, TokenId{777}}) {
    // Eager reference: α-filter with the pairwise path, full sort with the
    // index's comparator (sim desc, token asc).
    std::vector<Neighbor> reference;
    for (TokenId t : vocab) {
      if (t == q) continue;
      const Score s = sim.Similarity(q, t);
      if (s >= alpha) reference.push_back({t, s});
    }
    std::sort(reference.begin(), reference.end(),
              [](const Neighbor& a, const Neighbor& b) {
                if (a.sim != b.sim) return a.sim > b.sim;
                return a.token < b.token;
              });
    max_neighbors = std::max(max_neighbors, reference.size());

    std::vector<Neighbor> consumed;
    auto session = index.NewSession();
    while (auto n = session->NextNeighbor(q, alpha)) consumed.push_back(*n);

    ASSERT_EQ(consumed.size(), reference.size()) << "q=" << q;
    for (size_t i = 0; i < consumed.size(); ++i) {
      EXPECT_EQ(consumed[i].token, reference[i].token)
          << "q=" << q << " position " << i;
      EXPECT_NEAR(consumed[i].sim, reference[i].sim, 1e-12);
      if (i > 0) {
        // Non-increasing with the deterministic tie-break.
        EXPECT_TRUE(consumed[i - 1].sim > consumed[i].sim ||
                    (consumed[i - 1].sim == consumed[i].sim &&
                     consumed[i - 1].token < consumed[i].token));
      }
    }
  }
  // The laziness must actually have been exercised across chunks.
  EXPECT_GT(max_neighbors, 128u);
}

// ----------------------------------------------------------- stale-α cache --

TEST(ExactKnnIndexTest, CursorRebuiltWhenAlphaChanges) {
  testing::TableSimilarity sim;
  sim.Set(1, 2, 0.9);
  sim.Set(1, 3, 0.5);
  sim.Set(1, 4, 0.3);
  ExactKnnIndex index({1, 2, 3, 4}, &sim);
  auto session = index.NewSession();

  // First query at a high threshold: only token 2 qualifies.
  auto n = session->NextNeighbor(1, 0.8);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->token, 2u);
  EXPECT_FALSE(session->NextNeighbor(1, 0.8).has_value());

  // Second query at a lower threshold on the SAME session: a stale cursor
  // would keep serving the α=0.8 filtering (and claim exhaustion); the
  // rebuilt cursor must yield all three neighbors from the top.
  n = session->NextNeighbor(1, 0.25);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->token, 2u);
  n = session->NextNeighbor(1, 0.25);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->token, 3u);
  n = session->NextNeighbor(1, 0.25);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->token, 4u);
  EXPECT_FALSE(session->NextNeighbor(1, 0.25).has_value());
}

// ---------------------------------------------------------------- prewarm --

TEST(ExactKnnIndexTest, PrewarmedBlockBuildsMatchColdProbing) {
  embedding::SyntheticEmbeddingModel model(SmallSpec());
  CosineEmbeddingSimilarity sim(&model.store());
  const auto vocab = FullVocabulary(model.spec().vocab_size);
  const Score alpha = 0.4;

  std::vector<TokenId> queries;
  util::Rng rng(11);
  for (int i = 0; i < 20; ++i) {
    queries.push_back(
        static_cast<TokenId>(rng.NextBounded(model.spec().vocab_size)));
  }

  ExactKnnIndex warmed(vocab, &sim);
  warmed.Prewarm(queries, alpha);
  ExactKnnIndex cold(vocab, &sim);

  auto warm_session = warmed.NewSession();
  auto cold_session = cold.NewSession();
  for (TokenId q : queries) {
    while (true) {
      const auto a = warm_session->NextNeighbor(q, alpha);
      const auto b = cold_session->NextNeighbor(q, alpha);
      ASSERT_EQ(a.has_value(), b.has_value()) << "q=" << q;
      if (!a.has_value()) break;
      EXPECT_EQ(a->token, b->token) << "q=" << q;
      EXPECT_DOUBLE_EQ(a->sim, b->sim) << "q=" << q;
    }
  }
}

TEST(ExactKnnIndexTest, PrewarmedCursorsServeFreshSessions) {
  embedding::SyntheticEmbeddingModel model(SmallSpec());
  CosineEmbeddingSimilarity sim(&model.store());
  const auto vocab = FullVocabulary(model.spec().vocab_size);
  ExactKnnIndex index(vocab, &sim);
  index.Prewarm(std::vector<TokenId>{1, 2, 3}, 0.5);
  const CursorCacheStats warm = index.cursor_cache_stats();
  // A session opened after the prewarm probes the built cursor: no build.
  (void)index.NewSession()->NextNeighbor(1, 0.5);
  EXPECT_EQ(index.cursor_cache_stats().misses, warm.misses);
  EXPECT_GT(index.cursor_cache_stats().hits, warm.hits);
  EXPECT_GT(index.MemoryUsageBytes(), 0u);
}

// --------------------------------------------------- EmbeddingStore growth --

TEST(EmbeddingStoreTest, AddGrowsGeometrically) {
  embedding::EmbeddingStore store(8);
  std::vector<float> v(8, 1.0f);
  size_t reallocations = 0;
  size_t last_capacity = 0;
  for (TokenId t = 0; t < 512; ++t) {
    store.Add(t, v);
    const size_t cap = store.MemoryUsageBytes();
    if (cap != last_capacity) {
      ++reallocations;
      last_capacity = cap;
    }
  }
  // Exact-size reserves would reallocate on every insertion (512 times);
  // geometric growth stays logarithmic.
  EXPECT_LT(reallocations, 32u);
  EXPECT_EQ(store.covered(), 512u);
  // Rows must still be intact after all the growth.
  const auto row = store.VectorOf(511);
  for (float x : row) EXPECT_NEAR(x, 1.0f / std::sqrt(8.0f), 1e-6);
}

}  // namespace
}  // namespace koios::sim
