// Tests for the extension modules: many-to-one semantic overlap (the
// paper's §X future work), threshold search, and the MinHash-LSH index.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "koios/core/many_to_one.h"
#include "koios/core/searcher.h"
#include "koios/core/threshold_search.h"
#include "koios/data/string_corpus.h"
#include "koios/sim/minhash_index.h"
#include "test_util.h"

namespace koios::core {
namespace {

std::vector<TokenId> QueryOf(const testing::RandomWorkload& w, SetId id) {
  const auto span = w.corpus.sets.Tokens(id);
  return {span.begin(), span.end()};
}

// ------------------------------------------------------------ many-to-one --

TEST(ManyToOneTest, SeparableMeasureMatchesDefinition) {
  testing::TableSimilarity sim;
  sim.Set(0, 10, 0.9);
  sim.Set(1, 10, 0.8);  // both query elements map to token 10
  sim.Set(2, 11, 0.75);
  const std::vector<TokenId> q = {0, 1, 2};
  const std::vector<TokenId> c = {10, 11};
  // 1:1 matching must choose between rows 0 and 1 for token 10.
  EXPECT_NEAR(matching::SemanticOverlap(q, c, sim, 0.7), 0.9 + 0.75, 1e-12);
  // Many-to-one takes every row's maximum.
  EXPECT_NEAR(ManyToOneOverlap(q, c, sim, 0.7), 0.9 + 0.8 + 0.75, 1e-12);
}

TEST(ManyToOneTest, DominatesOneToOneMeasure) {
  auto w = testing::MakeRandomWorkload(60, 300, 5, 15, 1501);
  const auto q = QueryOf(w, 4);
  for (SetId id = 0; id < 30; ++id) {
    const Score one = matching::SemanticOverlap(
        q, w.corpus.sets.Tokens(id), *w.sim, 0.75);
    const Score many =
        ManyToOneOverlap(q, w.corpus.sets.Tokens(id), *w.sim, 0.75);
    EXPECT_GE(many + 1e-9, one) << "set " << id;
  }
}

TEST(ManyToOneTest, SearcherMatchesOracle) {
  auto w = testing::MakeRandomWorkload(120, 500, 5, 20, 1502);
  ManyToOneSearcher searcher(&w.corpus.sets, w.index.get());
  for (SetId qid : {SetId{0}, SetId{33}}) {
    const auto q = QueryOf(w, qid);
    SearchParams params;
    params.k = 10;
    params.alpha = 0.8;
    const auto result = searcher.Search(q, params);

    // Oracle: many-to-one score of every set.
    std::vector<std::pair<SetId, Score>> oracle;
    for (SetId id = 0; id < w.corpus.sets.size(); ++id) {
      const Score so =
          ManyToOneOverlap(q, w.corpus.sets.Tokens(id), *w.sim, params.alpha);
      if (so > 0) oracle.emplace_back(id, so);
    }
    std::sort(oracle.begin(), oracle.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    const size_t expect = std::min<size_t>(params.k, oracle.size());
    ASSERT_EQ(result.topk.size(), expect);
    for (size_t i = 0; i < expect; ++i) {
      EXPECT_NEAR(result.topk[i].score, oracle[i].second, 1e-6)
          << "rank " << i << " q " << qid;
    }
  }
}

TEST(ManyToOneTest, FilterTogglesPreserveExactness) {
  auto w = testing::MakeRandomWorkload(400, 800, 5, 30, 1503);
  ManyToOneSearcher searcher(&w.corpus.sets, w.index.get());
  const auto q = QueryOf(w, 7);
  SearchParams with, without;
  with.k = without.k = 3;
  with.alpha = without.alpha = 0.75;
  without.use_iub_filter = false;
  const auto r1 = searcher.Search(q, with);
  const auto r2 = searcher.Search(q, without);
  ASSERT_EQ(r1.topk.size(), r2.topk.size());
  for (size_t i = 0; i < r1.topk.size(); ++i) {
    EXPECT_NEAR(r1.topk[i].score, r2.topk[i].score, 1e-9);
  }
}

TEST(ManyToOneTest, IubFilterPrunesDominatedCandidates) {
  // Engineered: the query has k exact clones in the repository, so the
  // running threshold reaches |Q| from the sim-1.0 self matches alone; any
  // other candidate has UB = |Q| * s < |Q| once s < 1 and must be pruned.
  testing::TableSimilarity sim;
  const std::vector<TokenId> clone = {0, 1, 2, 3, 4};
  index::SetCollection sets;
  sets.AddSet(clone);
  sets.AddSet(clone);
  sets.AddSet(clone);
  // Distractor sets related only through weak edges.
  for (TokenId t = 100; t < 130; t += 3) {
    sets.AddSet(std::vector<TokenId>{t, t + 1, t + 2});
    sim.Set(0, t, 0.85);
    sim.Set(1, t + 1, 0.8);
  }
  std::vector<TokenId> vocab;
  for (TokenId t = 0; t < 5; ++t) vocab.push_back(t);
  for (TokenId t = 100; t < 130; ++t) vocab.push_back(t);
  sim::ExactKnnIndex index(vocab, &sim);
  ManyToOneSearcher searcher(&sets, &index);
  SearchParams params;
  params.k = 3;
  params.alpha = 0.7;
  const auto result = searcher.Search(clone, params);
  ASSERT_EQ(result.topk.size(), 3u);
  for (const auto& e : result.topk) {
    EXPECT_NEAR(e.score, 5.0, 1e-9);  // the three clones
    EXPECT_LT(e.set, 3u);
  }
  EXPECT_GT(result.stats.iub_filtered, 0u);
}

TEST(ManyToOneTest, QuerySynonymNoiseScenario) {
  // The paper's motivating case: two query variants of the same entity
  // both map to one candidate element.
  testing::TableSimilarity sim;
  const TokenId usa_full = 0, usa_short = 1, usa = 10;
  sim.Set(usa_full, usa, 0.92);
  sim.Set(usa_short, usa, 0.95);
  const std::vector<TokenId> q = {usa_full, usa_short};
  const std::vector<TokenId> c = {usa};
  EXPECT_NEAR(ManyToOneOverlap(q, c, sim, 0.9), 1.87, 1e-12);
  EXPECT_NEAR(matching::SemanticOverlap(q, c, sim, 0.9), 0.95, 1e-12);
}

// ------------------------------------------------------- threshold search --

TEST(ThresholdSearchTest, MatchesOracleSelection) {
  auto w = testing::MakeRandomWorkload(100, 400, 5, 18, 1601);
  ThresholdSearcher searcher(&w.corpus.sets, w.index.get());
  const auto q = QueryOf(w, 3);
  const Score alpha = 0.78;
  const auto oracle = testing::OracleRanking(w.corpus.sets, q, *w.sim, alpha);
  for (double theta : {1.0, 2.5, 5.0, 100.0}) {
    ThresholdParams params;
    params.theta = theta;
    params.alpha = alpha;
    const auto result = searcher.Search(q, params);
    std::set<SetId> expected;
    for (const auto& [id, so] : oracle) {
      if (so >= theta - 1e-9) expected.insert(id);
    }
    std::set<SetId> got;
    for (const auto& e : result) {
      got.insert(e.set);
      EXPECT_GE(e.score, theta - 1e-6);
    }
    EXPECT_EQ(got, expected) << "theta " << theta;
  }
}

TEST(ThresholdSearchTest, ScoresAreExactWhenVerified) {
  auto w = testing::MakeRandomWorkload(80, 350, 5, 15, 1602);
  ThresholdSearcher searcher(&w.corpus.sets, w.index.get());
  const auto q = QueryOf(w, 11);
  ThresholdParams params;
  params.theta = 2.0;
  params.alpha = 0.8;
  params.verify_scores = true;
  const auto result = searcher.Search(q, params);
  for (const auto& e : result) {
    const Score truth = matching::SemanticOverlap(
        q, w.corpus.sets.Tokens(e.set), *w.sim, params.alpha);
    EXPECT_TRUE(e.exact);
    EXPECT_NEAR(e.score, truth, 1e-6);
  }
}

TEST(ThresholdSearchTest, LbAdmissionSkipsMatchings) {
  auto w = testing::MakeRandomWorkload(100, 400, 5, 18, 1603);
  ThresholdSearcher searcher(&w.corpus.sets, w.index.get());
  const auto q = QueryOf(w, 5);
  ThresholdParams fast;
  fast.theta = 1.0;
  fast.alpha = 0.8;
  fast.verify_scores = false;  // allow LB admission to actually skip
  SearchStats stats;
  const auto result = searcher.Search(q, fast, &stats);
  EXPECT_GT(stats.no_em_skipped, 0u);
  for (const auto& e : result) {
    if (!e.exact) {
      // Reported LB must still certify membership.
      EXPECT_GE(e.score, fast.theta - 1e-9);
    }
  }
}

TEST(ThresholdSearchTest, HugeThetaReturnsOnlySelfLikeSets) {
  auto w = testing::MakeRandomWorkload(60, 300, 8, 16, 1604);
  ThresholdSearcher searcher(&w.corpus.sets, w.index.get());
  const auto q = QueryOf(w, 9);
  ThresholdParams params;
  params.theta = static_cast<Score>(q.size());  // only perfect matches
  params.alpha = 0.8;
  const auto result = searcher.Search(q, params);
  ASSERT_GE(result.size(), 1u);  // the source set itself
  EXPECT_EQ(result[0].set, 9u);
}

// ----------------------------------------------------------- MinHash-LSH --

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
