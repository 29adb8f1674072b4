// Parity tests for the batched LSH / MinHash probe path (ISSUE 2): the
// candidate batches scored through SimilarityBatch[Multi] must reproduce
// the seed's pairwise-scored, eagerly-sorted cursors exactly. The seed
// pipelines are reimplemented here verbatim (same hash constructions, same
// per-candidate virtual scoring, same eager sort) as independent
// references.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "koios/data/string_corpus.h"
#include "koios/embedding/synthetic_model.h"
#include "koios/sim/cosine_similarity.h"
#include "koios/sim/jaccard_qgram_similarity.h"
#include "koios/sim/lsh_index.h"
#include "koios/sim/minhash_index.h"
#include "koios/text/qgram.h"
#include "koios/util/rng.h"

namespace koios::sim {
namespace {

// ---------------------------------------------------------------------------
// Seed reference: random-hyperplane LSH, reproduced from the seed sources.
// Bucket tables built with the same Rng(seed) draw order and signature
// construction as CosineLshIndex, candidates scored one virtual
// Similarity() call at a time, neighbors sorted eagerly.
class SeedLshReference {
 public:
  SeedLshReference(const std::vector<TokenId>& vocabulary,
                   const embedding::EmbeddingStore* store,
                   const SimilarityFunction* sim, const LshIndexSpec& spec)
      : store_(store), sim_(sim), spec_(spec) {
    util::Rng rng(spec_.seed);
    const size_t dim = store_->dim();
    hyperplanes_.resize(spec_.num_tables * spec_.bits_per_table);
    for (auto& h : hyperplanes_) {
      h.resize(dim);
      for (auto& x : h) x = static_cast<float>(rng.NextGaussian());
    }
    tables_.resize(spec_.num_tables);
    for (TokenId t : vocabulary) {
      if (!store_->Has(t)) continue;
      const auto vec = store_->VectorOf(t);
      for (size_t table = 0; table < spec_.num_tables; ++table) {
        tables_[table][SignatureOf(vec, table)].push_back(t);
      }
    }
  }

  std::vector<Neighbor> Stream(TokenId q, Score alpha) const {
    std::vector<Neighbor> neighbors;
    if (!store_->Has(q)) return neighbors;
    const auto vec = store_->VectorOf(q);
    std::unordered_set<TokenId> candidates;
    for (size_t table = 0; table < spec_.num_tables; ++table) {
      auto it = tables_[table].find(SignatureOf(vec, table));
      if (it == tables_[table].end()) continue;
      candidates.insert(it->second.begin(), it->second.end());
    }
    for (TokenId t : candidates) {
      if (t == q) continue;
      const Score s = sim_->Similarity(q, t);
      if (s >= alpha) neighbors.push_back({t, s});
    }
    std::sort(neighbors.begin(), neighbors.end(),
              [](const Neighbor& a, const Neighbor& b) {
                if (a.sim != b.sim) return a.sim > b.sim;
                return a.token < b.token;
              });
    return neighbors;
  }

 private:
  uint64_t SignatureOf(std::span<const float> vec, size_t table) const {
    uint64_t sig = 0;
    const size_t base = table * spec_.bits_per_table;
    for (size_t bit = 0; bit < spec_.bits_per_table; ++bit) {
      const auto& h = hyperplanes_[base + bit];
      double dot = 0.0;
      for (size_t d = 0; d < vec.size(); ++d) {
        dot += static_cast<double>(h[d]) * vec[d];
      }
      sig = (sig << 1) | (dot >= 0.0 ? 1u : 0u);
    }
    return sig;
  }

  const embedding::EmbeddingStore* store_;
  const SimilarityFunction* sim_;
  LshIndexSpec spec_;
  std::vector<std::vector<float>> hyperplanes_;
  std::vector<std::unordered_map<uint64_t, std::vector<TokenId>>> tables_;
};

// ---------------------------------------------------------------------------
// Seed reference: MinHash banding, reproduced from the seed sources (same
// FNV-1a row hashes, signature minima and band keys), with per-candidate
// virtual scoring and an eager sort.
class SeedMinHashReference {
 public:
  SeedMinHashReference(const std::vector<TokenId>& vocabulary,
                       const JaccardQGramSimilarity* sim,
                       const MinHashIndexSpec& spec)
      : sim_(sim), spec_(spec) {
    util::Rng rng(spec_.seed);
    hash_seeds_.resize(spec_.num_bands * spec_.rows_per_band);
    for (auto& s : hash_seeds_) s = rng.NextUint64();
    bands_.resize(spec_.num_bands);
    for (TokenId t : vocabulary) {
      const auto signature = SignatureOf(sim_->GramsOf(t));
      for (size_t band = 0; band < spec_.num_bands; ++band) {
        bands_[band][BandKey(signature, band)].push_back(t);
      }
    }
  }

  std::vector<Neighbor> Stream(TokenId q, Score alpha) const {
    const auto signature = SignatureOf(sim_->GramsOf(q));
    std::unordered_set<TokenId> candidates;
    for (size_t band = 0; band < spec_.num_bands; ++band) {
      auto it = bands_[band].find(BandKey(signature, band));
      if (it == bands_[band].end()) continue;
      candidates.insert(it->second.begin(), it->second.end());
    }
    std::vector<Neighbor> neighbors;
    for (TokenId t : candidates) {
      if (t == q) continue;
      // Seed scoring: string-gram merge Jaccard, independent of the
      // interned-id kernel under test.
      const Score s = t == q ? 1.0
                             : text::JaccardSorted(sim_->GramsOf(q),
                                                   sim_->GramsOf(t));
      if (s >= alpha) neighbors.push_back({t, s});
    }
    std::sort(neighbors.begin(), neighbors.end(),
              [](const Neighbor& a, const Neighbor& b) {
                if (a.sim != b.sim) return a.sim > b.sim;
                return a.token < b.token;
              });
    return neighbors;
  }

 private:
  std::vector<uint64_t> SignatureOf(
      const std::vector<std::string>& grams) const {
    std::vector<uint64_t> signature(hash_seeds_.size(),
                                    std::numeric_limits<uint64_t>::max());
    for (const auto& gram : grams) {
      for (size_t row = 0; row < hash_seeds_.size(); ++row) {
        signature[row] =
            std::min(signature[row], HashGram(gram, hash_seeds_[row]));
      }
    }
    return signature;
  }

  static uint64_t HashGram(const std::string& gram, uint64_t seed) {
    uint64_t h = 14695981039346656037ull ^ seed;
    for (unsigned char c : gram) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    return h;
  }

  uint64_t BandKey(const std::vector<uint64_t>& signature, size_t band) const {
    uint64_t key = 0xCBF29CE484222325ull + band;
    for (size_t r = 0; r < spec_.rows_per_band; ++r) {
      key ^= signature[band * spec_.rows_per_band + r] +
             0x9E3779B97F4A7C15ull + (key << 6) + (key >> 2);
    }
    return key;
  }

  const JaccardQGramSimilarity* sim_;
  MinHashIndexSpec spec_;
  std::vector<uint64_t> hash_seeds_;
  std::vector<std::unordered_map<uint64_t, std::vector<TokenId>>> bands_;
};

/// Drains `q`'s stream through a fresh session of `index`.
std::vector<Neighbor> Drain(const SimilarityIndex& index, TokenId q,
                            Score alpha) {
  auto session = index.NewSession();
  std::vector<Neighbor> out;
  while (auto n = session->NextNeighbor(q, alpha)) out.push_back(*n);
  return out;
}

// `sim_tolerance` 0 demands bit-identical scores (Jaccard: both paths
// divide the same integer counts). The cosine paths accumulate in a
// different (vectorized) order than the seed's serial loop, so they agree
// to ~1e-15, not bit-for-bit; random corpora have no distinct-token ties
// at that scale, so the order is still uniquely determined.
void ExpectSameStream(const std::vector<Neighbor>& got,
                      const std::vector<Neighbor>& want, TokenId q,
                      double sim_tolerance = 0.0) {
  ASSERT_EQ(got.size(), want.size()) << "q=" << q;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].token, want[i].token) << "q=" << q << " pos " << i;
    if (sim_tolerance == 0.0) {
      EXPECT_DOUBLE_EQ(got[i].sim, want[i].sim) << "q=" << q << " pos " << i;
    } else {
      EXPECT_NEAR(got[i].sim, want[i].sim, sim_tolerance)
          << "q=" << q << " pos " << i;
    }
  }
}

// --------------------------------------------------------- LSH vs seed ----

TEST(LshBatchParityTest, BatchedProbesEqualSeedPairwisePath) {
  embedding::SyntheticModelSpec spec;
  spec.vocab_size = 600;
  spec.dim = 48;
  spec.avg_cluster_size = 12.0;
  spec.noise_sigma = 0.4;
  spec.coverage = 0.85;  // keep OOV tokens in play
  spec.seed = 321;
  embedding::SyntheticEmbeddingModel model(spec);
  CosineEmbeddingSimilarity sim(&model.store());
  std::vector<TokenId> vocab(spec.vocab_size);
  for (TokenId t = 0; t < spec.vocab_size; ++t) vocab[t] = t;

  LshIndexSpec lsh;
  lsh.num_tables = 6;
  lsh.bits_per_table = 8;
  CosineLshIndex index(vocab, &model.store(), &sim, lsh);
  SeedLshReference seed(vocab, &model.store(), &sim, lsh);

  util::Rng rng(7);
  for (const Score alpha : {0.3, 0.6, 0.85}) {
    for (int i = 0; i < 25; ++i) {
      const TokenId q = static_cast<TokenId>(rng.NextBounded(spec.vocab_size));
      ExpectSameStream(Drain(index, q, alpha), seed.Stream(q, alpha), q,
                       1e-12);
    }
  }
}

TEST(LshBatchParityTest, PrewarmedBlockPathEqualsColdSinglePath) {
  embedding::SyntheticModelSpec spec;
  spec.vocab_size = 500;
  spec.dim = 32;
  spec.avg_cluster_size = 10.0;
  spec.noise_sigma = 0.35;
  spec.coverage = 0.9;
  spec.seed = 55;
  embedding::SyntheticEmbeddingModel model(spec);
  CosineEmbeddingSimilarity sim(&model.store());
  std::vector<TokenId> vocab(spec.vocab_size);
  for (TokenId t = 0; t < spec.vocab_size; ++t) vocab[t] = t;

  LshIndexSpec lsh;
  lsh.num_tables = 8;
  lsh.bits_per_table = 7;
  CosineLshIndex warmed(vocab, &model.store(), &sim, lsh);
  CosineLshIndex cold(vocab, &model.store(), &sim, lsh);

  std::vector<TokenId> queries;
  util::Rng rng(11);
  for (int i = 0; i < 30; ++i) {
    queries.push_back(static_cast<TokenId>(rng.NextBounded(spec.vocab_size)));
  }
  const Score alpha = 0.4;
  // The warmed index builds cursors through the multi-query union kernel;
  // the cold one through per-query single scans. Streams must agree.
  warmed.Prewarm(queries, alpha);
  for (TokenId q : queries) {
    // Single- and multi-query cosine kernels share an accumulation shape,
    // so these two paths ARE bit-identical.
    ExpectSameStream(Drain(warmed, q, alpha), Drain(cold, q, alpha), q);
  }
}

// ----------------------------------------------------- MinHash vs seed ----

TEST(MinHashBatchParityTest, BatchedProbesEqualSeedPairwisePath) {
  data::StringCorpusSpec spec;
  spec.num_sets = 60;
  spec.num_base_words = 250;
  spec.typos_per_word = 2;
  spec.seed = 99;
  data::StringCorpus corpus = data::GenerateStringCorpus(spec);
  JaccardQGramSimilarity jaccard(&corpus.dict, 3);

  MinHashIndexSpec mh;
  mh.num_bands = 20;
  mh.rows_per_band = 3;
  MinHashIndex index(corpus.vocabulary, &jaccard, mh);
  SeedMinHashReference seed(corpus.vocabulary, &jaccard, mh);

  for (const Score alpha : {0.3, 0.5, 0.7}) {
    for (size_t i = 0; i < corpus.vocabulary.size(); i += 9) {
      const TokenId q = corpus.vocabulary[i];
      ExpectSameStream(Drain(index, q, alpha), seed.Stream(q, alpha), q);
    }
  }
}

TEST(MinHashBatchParityTest, PrewarmedBlockPathEqualsColdSinglePath) {
  data::StringCorpusSpec spec;
  spec.num_sets = 50;
  spec.num_base_words = 200;
  spec.seed = 43;
  data::StringCorpus corpus = data::GenerateStringCorpus(spec);
  JaccardQGramSimilarity jaccard(&corpus.dict, 3);

  MinHashIndexSpec mh;
  MinHashIndex warmed(corpus.vocabulary, &jaccard, mh);
  MinHashIndex cold(corpus.vocabulary, &jaccard, mh);

  std::vector<TokenId> queries;
  for (size_t i = 0; i < corpus.vocabulary.size(); i += 7) {
    queries.push_back(corpus.vocabulary[i]);
  }
  const Score alpha = 0.45;
  warmed.Prewarm(queries, alpha);
  for (TokenId q : queries) {
    ExpectSameStream(Drain(warmed, q, alpha), Drain(cold, q, alpha), q);
  }
}

// ------------------------------------------- Jaccard interned-id kernel ----

TEST(JaccardBatchTest, InternedIdSimilarityMatchesStringGramJaccard) {
  data::StringCorpusSpec spec;
  spec.num_sets = 40;
  spec.num_base_words = 150;
  spec.seed = 17;
  data::StringCorpus corpus = data::GenerateStringCorpus(spec);
  JaccardQGramSimilarity jaccard(&corpus.dict, 3);

  // Pairwise and batched id-merge values must equal the string-gram
  // reference exactly (interning is a bijection on gram sets).
  std::vector<Score> batch(corpus.vocabulary.size());
  for (size_t i = 0; i < corpus.vocabulary.size(); i += 11) {
    const TokenId q = corpus.vocabulary[i];
    jaccard.SimilarityBatch(q, corpus.vocabulary, batch);
    for (size_t j = 0; j < corpus.vocabulary.size(); ++j) {
      const TokenId t = corpus.vocabulary[j];
      const double reference =
          t == q ? 1.0 : text::JaccardSorted(jaccard.GramsOf(q), jaccard.GramsOf(t));
      EXPECT_DOUBLE_EQ(jaccard.Similarity(q, t), reference)
          << "q=" << q << " t=" << t;
      EXPECT_DOUBLE_EQ(batch[j], reference) << "q=" << q << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace koios::sim
