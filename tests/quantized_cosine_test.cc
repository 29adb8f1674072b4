// Tests for the int8 quantized embedding tier (ISSUE 2): the fused
// dequant-dot kernel's error bound, exactness preservation at
// Precision::kFloat64, batch/pairwise self-consistency, and tier
// lifecycle (Finalize idempotence, invalidation by Add).
//
// Error-bound rationale: codes are affine with per-row scale
// s = (max - min) / 254 and normalized rows have max - min <= 2, so each
// reconstructed element is off by at most s/2 <= 1/254, and a dim-d dot
// of unit vectors accumulates at most (|a|_1 + |b|_1) / 254 <= 2*sqrt(d)/254
// absolute error — ~0.14 for d = 300 in the worst case, empirically ~100×
// smaller because quantization errors have random signs. The documented
// bound asserted here (0.05) sits between the two.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "koios/embedding/embedding_store.h"
#include "koios/embedding/synthetic_model.h"
#include "koios/sim/cosine_similarity.h"
#include "koios/sim/exact_knn_index.h"
#include "koios/util/rng.h"

namespace koios::embedding {
namespace {

constexpr double kDocumentedAbsErrorBound = 0.05;  // see docs/BENCHMARKS.md

SyntheticModelSpec QuantSpec() {
  SyntheticModelSpec spec;
  spec.vocab_size = 500;
  spec.dim = 96;
  spec.avg_cluster_size = 12.0;
  spec.noise_sigma = 0.4;
  spec.coverage = 0.9;  // keep OOV tokens so the kNoRow paths run
  spec.seed = 2024;
  return spec;
}

std::vector<TokenId> FullVocabulary(size_t n) {
  std::vector<TokenId> vocab(n);
  for (TokenId t = 0; t < n; ++t) vocab[t] = t;
  return vocab;
}

TEST(QuantizedCosineTest, Float64PrecisionBitIdenticalBeforeAndAfterFinalize) {
  SyntheticEmbeddingModel model(QuantSpec());
  auto& store = model.mutable_store();
  const auto vocab = FullVocabulary(model.spec().vocab_size);

  std::vector<double> before(vocab.size());
  std::vector<double> after(vocab.size());
  store.CosineBatch(3, vocab, std::span<double>(before),
                    Precision::kFloat64);
  store.Finalize();
  ASSERT_TRUE(store.quantized());
  store.CosineBatch(3, vocab, std::span<double>(after), Precision::kFloat64);
  for (size_t i = 0; i < vocab.size(); ++i) {
    // kFloat64 must route to the exact float-row kernel regardless of the
    // quantized tier's existence.
    EXPECT_DOUBLE_EQ(before[i], after[i]) << "t=" << vocab[i];
  }
}

TEST(QuantizedCosineTest, Int8ErrorWithinDocumentedBound) {
  SyntheticEmbeddingModel model(QuantSpec());
  auto& store = model.mutable_store();
  store.Finalize();
  const auto vocab = FullVocabulary(model.spec().vocab_size);

  std::vector<double> exact(vocab.size());
  std::vector<double> quant(vocab.size());
  double max_err = 0.0;
  util::Rng rng(5);
  for (int rep = 0; rep < 10; ++rep) {
    const TokenId q =
        static_cast<TokenId>(rng.NextBounded(model.spec().vocab_size));
    store.CosineBatch(q, vocab, std::span<double>(exact),
                      Precision::kFloat64);
    store.CosineBatch(q, vocab, std::span<double>(quant), Precision::kInt8);
    for (size_t i = 0; i < vocab.size(); ++i) {
      // OOV rows must be 0 in both tiers; covered rows within the bound.
      if (!store.Has(q) || !store.Has(vocab[i])) {
        EXPECT_DOUBLE_EQ(quant[i], 0.0);
        continue;
      }
      max_err = std::max(max_err, std::abs(quant[i] - exact[i]));
    }
  }
  EXPECT_LE(max_err, kDocumentedAbsErrorBound);
}

TEST(QuantizedCosineTest, BatchedInt8MatchesScalarCosineQuantized) {
  SyntheticEmbeddingModel model(QuantSpec());
  auto& store = model.mutable_store();
  store.Finalize();
  const auto vocab = FullVocabulary(model.spec().vocab_size);

  std::vector<double> batch(vocab.size());
  std::vector<double> multi(2 * vocab.size());
  const std::vector<TokenId> queries = {7, 123};
  store.CosineMultiBatch(queries, vocab, std::span<double>(multi),
                         Precision::kInt8);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const TokenId q = queries[qi];
    store.CosineBatch(q, vocab, std::span<double>(batch), Precision::kInt8);
    for (size_t i = 0; i < vocab.size(); ++i) {
      const double reference = store.Has(q) && store.Has(vocab[i])
                                   ? store.CosineQuantized(q, vocab[i])
                                   : 0.0;
      // Integer dot + fixed fused formula: all three paths bit-identical.
      EXPECT_DOUBLE_EQ(batch[i], reference) << "q=" << q << " t=" << vocab[i];
      EXPECT_DOUBLE_EQ(multi[qi * vocab.size() + i], reference)
          << "q=" << q << " t=" << vocab[i];
    }
  }
}

TEST(QuantizedCosineTest, Int8FallsBackToFloatWhenNotFinalized) {
  SyntheticEmbeddingModel model(QuantSpec());
  const auto& store = model.store();
  ASSERT_FALSE(store.quantized());
  const auto vocab = FullVocabulary(model.spec().vocab_size);
  std::vector<double> exact(vocab.size());
  std::vector<double> quant(vocab.size());
  store.CosineBatch(9, vocab, std::span<double>(exact), Precision::kFloat64);
  store.CosineBatch(9, vocab, std::span<double>(quant), Precision::kInt8);
  for (size_t i = 0; i < vocab.size(); ++i) {
    EXPECT_DOUBLE_EQ(quant[i], exact[i]);
  }
}

TEST(QuantizedCosineTest, AddAfterFinalizeDropsTierAndRefinalizeRestoresIt) {
  EmbeddingStore store(8);
  util::Rng rng(77);
  std::vector<float> v(8);
  for (TokenId t = 0; t < 20; ++t) {
    for (auto& x : v) x = static_cast<float>(rng.NextGaussian());
    store.Add(t, v);
  }
  store.Finalize();
  EXPECT_TRUE(store.quantized());
  store.Finalize();  // idempotent
  EXPECT_TRUE(store.quantized());
  EXPECT_GT(store.QuantizedMemoryUsageBytes(), 0u);

  for (auto& x : v) x = static_cast<float>(rng.NextGaussian());
  store.Add(20, v);
  EXPECT_FALSE(store.quantized());  // tier no longer covers every row

  store.Finalize();
  EXPECT_TRUE(store.quantized());
  // The re-finalized tier covers the new row.
  EXPECT_NEAR(store.CosineQuantized(20, 20), 1.0, kDocumentedAbsErrorBound);
}

TEST(QuantizedCosineTest, ConstantRowQuantizesExactly) {
  // A constant row has hi == lo: scale 0, all-zero codes, value carried by
  // the offset — the fused formula must reproduce its dot products.
  EmbeddingStore store(16);
  std::vector<float> ones(16, 1.0f);
  std::vector<float> mixed(16);
  for (size_t i = 0; i < 16; ++i) mixed[i] = i % 2 == 0 ? 1.0f : -1.0f;
  store.Add(0, ones);
  store.Add(1, mixed);
  store.Finalize();
  EXPECT_NEAR(store.CosineQuantized(0, 0), 1.0, 1e-6);
  EXPECT_NEAR(store.CosineQuantized(0, 1), store.Cosine(0, 1), 1e-6);
}

TEST(QuantizedCosineSimilarityTest, Int8SimilarityIsSelfConsistentAcrossPaths) {
  SyntheticEmbeddingModel model(QuantSpec());
  model.mutable_store().Finalize();
  sim::CosineEmbeddingSimilarity quant_sim(&model.store(), Precision::kInt8);
  const auto vocab = FullVocabulary(model.spec().vocab_size);

  std::vector<Score> batch(vocab.size());
  util::Rng rng(31);
  for (int rep = 0; rep < 6; ++rep) {
    const TokenId q =
        static_cast<TokenId>(rng.NextBounded(model.spec().vocab_size));
    quant_sim.SimilarityBatch(q, vocab, std::span<Score>(batch));
    for (size_t i = 0; i < vocab.size(); ++i) {
      // Pairwise and batched kInt8 read the same tier → identical values,
      // same clamping, sim(x, x) = 1.
      EXPECT_DOUBLE_EQ(batch[i], quant_sim.Similarity(q, vocab[i]))
          << "q=" << q << " t=" << vocab[i];
      EXPECT_GE(batch[i], 0.0);
      EXPECT_LE(batch[i], 1.0);
    }
  }
}

TEST(QuantizedCosineSimilarityTest, Int8KnnStreamStaysCloseToExact) {
  // End-to-end: an exact-scan index over the kInt8 similarity must stream
  // neighbors whose similarities match the float index within the bound —
  // the index-level view of the quantization error.
  SyntheticEmbeddingModel model(QuantSpec());
  model.mutable_store().Finalize();
  sim::CosineEmbeddingSimilarity exact_sim(&model.store());
  sim::CosineEmbeddingSimilarity quant_sim(&model.store(), Precision::kInt8);
  const auto vocab = FullVocabulary(model.spec().vocab_size);
  sim::ExactKnnIndex exact_index(vocab, &exact_sim);
  sim::ExactKnnIndex quant_index(vocab, &quant_sim);

  const Score alpha = 0.5;
  size_t compared = 0;
  for (TokenId q : {TokenId{2}, TokenId{77}, TokenId{310}}) {
    auto session = quant_index.NewSession();
    while (true) {
      const auto qn = session->NextNeighbor(q, alpha);
      if (!qn.has_value()) break;
      // The quantized stream's scores must be within the bound of the true
      // similarity of that pair (membership near α may legitimately
      // differ, so compare scores pairwise, not stream-vs-stream).
      EXPECT_NEAR(qn->sim, exact_sim.Similarity(q, qn->token),
                  kDocumentedAbsErrorBound);
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
}

}  // namespace
}  // namespace koios::embedding
