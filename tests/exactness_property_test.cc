// The central correctness property of the repository: for any corpus,
// query, k, α, shard count, and filter configuration, Koios returns an
// exact top-k result — the k-th score equals the brute-force oracle's θ*k,
// and every reported set's score is its true semantic overlap.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "koios/core/searcher.h"
#include "koios/serve/shard_coordinator.h"
#include "test_util.h"

namespace koios::core {
namespace {

using testing::MakeRandomWorkload;
using testing::OracleKthScore;
using testing::OracleRanking;

constexpr double kTol = 1e-6;

void ExpectExactTopK(const index::SetCollection& sets,
                     std::span<const TokenId> query,
                     const sim::SimilarityFunction& sim, Score alpha,
                     const SearchResult& result, size_t k,
                     const std::string& label) {
  const auto oracle = OracleRanking(sets, query, sim, alpha);
  const Score theta_star = OracleKthScore(oracle, k);
  const size_t expected_size = std::min(k, oracle.size());
  ASSERT_EQ(result.topk.size(), expected_size) << label;
  if (expected_size == 0) return;

  // k-th score must match θ*k exactly (ties may swap identities).
  EXPECT_NEAR(result.KthScore(), theta_star, kTol) << label;

  // Every reported entry: score is the true SO of that set, >= θ*k, and in
  // non-increasing order.
  Score prev = std::numeric_limits<Score>::infinity();
  for (const ResultEntry& entry : result.topk) {
    const Score truth = matching::SemanticOverlap(
        query, sets.Tokens(entry.set), sim, alpha);
    EXPECT_NEAR(entry.score, truth, kTol)
        << label << " set " << entry.set;
    EXPECT_GE(entry.score, theta_star - kTol) << label;
    EXPECT_LE(entry.score, prev + kTol) << label;
    prev = entry.score;
  }
}

// --------------------------------------------------------- basic queries --

TEST(ExactnessTest, SingleQueryDefaultParams) {
  auto w = MakeRandomWorkload(120, 600, 5, 25, 1001);
  const auto q = w.corpus.sets.Tokens(3);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  SearchParams params;
  params.k = 10;
  params.alpha = 0.8;
  const SearchResult result = searcher.Search(q, params);
  ExpectExactTopK(w.corpus.sets, q, *w.sim, params.alpha, result, params.k,
                  "default");
}

TEST(ExactnessTest, QueryNotInRepository) {
  auto w = MakeRandomWorkload(100, 500, 5, 20, 1002);
  // Synthesize a query of arbitrary vocabulary tokens (not a stored set).
  std::vector<TokenId> q = {w.corpus.vocabulary[1], w.corpus.vocabulary[7],
                            w.corpus.vocabulary[13], w.corpus.vocabulary[42],
                            w.corpus.vocabulary[77]};
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  SearchParams params;
  params.k = 5;
  params.alpha = 0.75;
  const SearchResult result = searcher.Search(q, params);
  ExpectExactTopK(w.corpus.sets, q, *w.sim, params.alpha, result, params.k,
                  "external query");
}

TEST(ExactnessTest, QueryWithOutOfVocabularyTokens) {
  // Includes tokens beyond the corpus vocabulary (match nothing) and OOV
  // embedding tokens (match only identically).
  auto w = MakeRandomWorkload(100, 500, 5, 20, 1003, /*coverage=*/0.6);
  std::vector<TokenId> q(w.corpus.sets.Tokens(5).begin(),
                         w.corpus.sets.Tokens(5).end());
  q.push_back(static_cast<TokenId>(10'000'000));  // nowhere in D
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  SearchParams params;
  params.k = 10;
  params.alpha = 0.8;
  const SearchResult result = searcher.Search(q, params);
  ExpectExactTopK(w.corpus.sets, q, *w.sim, params.alpha, result, params.k,
                  "oov query");
}

TEST(ExactnessTest, EmptyQueryReturnsNothing) {
  auto w = MakeRandomWorkload(50, 300, 5, 15, 1004);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  SearchParams params;
  const SearchResult result = searcher.Search({}, params);
  EXPECT_TRUE(result.topk.empty());
}

TEST(ExactnessTest, SelfQueryRanksItselfFirst) {
  auto w = MakeRandomWorkload(80, 400, 8, 20, 1005);
  const SetId target = 11;
  const auto q = w.corpus.sets.Tokens(target);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  SearchParams params;
  params.k = 3;
  const SearchResult result = searcher.Search(q, params);
  ASSERT_FALSE(result.topk.empty());
  // SO(Q, Q) = |Q|; the source set must score exactly |Q| and top the list.
  EXPECT_NEAR(result.topk[0].score, static_cast<Score>(q.size()), kTol);
  bool found = false;
  for (const auto& e : result.topk) found |= (e.set == target);
  EXPECT_TRUE(found);
}

// The shards of `coordinator` searched one after another (sequential
// scatter) under their shared θlb, and their answers merged.
SearchResult SearchShards(const serve::ShardCoordinator& coordinator,
                          std::span<const TokenId> query,
                          const SearchParams& params) {
  return coordinator.Execute(query, params, {}, /*shard_pool=*/nullptr,
                             /*report=*/nullptr);
}

// ----------------------------------------------- parameterized k x alpha --

class ExactnessSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(ExactnessSweepTest, KoiosMatchesOracle) {
  const auto [k, alpha] = GetParam();
  auto w = MakeRandomWorkload(150, 700, 4, 30, 2000 + k * 13);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  for (SetId qid : {SetId{0}, SetId{29}, SetId{88}}) {
    const auto q = w.corpus.sets.Tokens(qid);
    SearchParams params;
    params.k = k;
    params.alpha = alpha;
    const SearchResult result = searcher.Search(q, params);
    ExpectExactTopK(w.corpus.sets, q, *w.sim, alpha, result, k,
                    "k=" + std::to_string(k) + " alpha=" + std::to_string(alpha) +
                        " q=" + std::to_string(qid));
  }
}

INSTANTIATE_TEST_SUITE_P(
    KAlphaGrid, ExactnessSweepTest,
    ::testing::Combine(::testing::Values<size_t>(1, 3, 10, 25),
                       ::testing::Values(0.6, 0.75, 0.85, 0.95)));

// ------------------------------------------------------------ partitions --

// The §VI partitions are the coordinator's contiguous shards.
class PartitionExactnessTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PartitionExactnessTest, PartitionedSearchIsExact) {
  const size_t shards = GetParam();
  auto w = MakeRandomWorkload(130, 600, 5, 25, 3000);
  const serve::ShardCoordinator coordinator(&w.corpus.sets, w.index.get(),
                                            {.num_shards = shards});
  EXPECT_EQ(coordinator.num_shards(), shards);
  for (SetId qid : {SetId{2}, SetId{64}}) {
    const auto q = w.corpus.sets.Tokens(qid);
    SearchParams params;
    params.k = 8;
    params.alpha = 0.78;
    const SearchResult result = SearchShards(coordinator, q, params);
    ExpectExactTopK(w.corpus.sets, q, *w.sim, params.alpha, result, params.k,
                    "shards=" + std::to_string(shards));
  }
}

// Verification off: the shard lists merge by score, and a No-EM lower
// bound is not comparable across shards, so with more than one shard the
// coordinator verifies the reported scores anyway. One shard keeps the
// caller's setting: its lower bounds still name the right sets. At every
// shard count above one, scores merged unverified put set 581 (SO 9.3295,
// reported at its lower bound 9.3265) in 5th place instead of set 138
// (SO 9.3411).
TEST_P(PartitionExactnessTest, VerifyOffStillReturnsTheExactTopK) {
  const size_t shards = GetParam();
  auto w = MakeRandomWorkload(600, 1500, 4, 40, 712);
  const serve::ShardCoordinator coordinator(&w.corpus.sets, w.index.get(),
                                            {.num_shards = shards});
  const auto q = w.corpus.sets.Tokens(56);
  SearchParams params;
  params.k = 5;
  params.alpha = 0.75;
  params.verify_result_scores = false;
  const SearchResult result = SearchShards(coordinator, q, params);
  const std::string label = "shards=" + std::to_string(shards);
  if (shards > 1) {
    ExpectExactTopK(w.corpus.sets, q, *w.sim, params.alpha, result, params.k,
                    label);
    return;
  }
  const auto oracle = OracleRanking(w.corpus.sets, q, *w.sim, params.alpha);
  const Score theta_star = OracleKthScore(oracle, params.k);
  ASSERT_EQ(result.topk.size(), std::min(params.k, oracle.size())) << label;
  for (const ResultEntry& entry : result.topk) {
    const Score truth = matching::SemanticOverlap(
        q, w.corpus.sets.Tokens(entry.set), *w.sim, params.alpha);
    EXPECT_GE(truth, theta_star - kTol) << label << " set " << entry.set;
  }
}

INSTANTIATE_TEST_SUITE_P(PartitionCounts, PartitionExactnessTest,
                         ::testing::Values<size_t>(1, 2, 4, 5, 10, 25));

// -------------------------------------------------------- filter ablation --

struct FilterConfig {
  bool iub, bucket, no_em, em_et;
};

class FilterAblationTest : public ::testing::TestWithParam<FilterConfig> {};

TEST_P(FilterAblationTest, AnyFilterCombinationIsExact) {
  const FilterConfig config = GetParam();
  auto w = MakeRandomWorkload(120, 500, 5, 25, 4000);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  const auto q = w.corpus.sets.Tokens(9);
  SearchParams params;
  params.k = 10;
  params.alpha = 0.8;
  params.use_iub_filter = config.iub;
  params.use_bucket_index = config.bucket;
  params.use_no_em_filter = config.no_em;
  params.use_em_early_termination = config.em_et;
  const SearchResult result = searcher.Search(q, params);
  ExpectExactTopK(w.corpus.sets, q, *w.sim, params.alpha, result, params.k,
                  "filters");
}

INSTANTIATE_TEST_SUITE_P(
    FilterGrid, FilterAblationTest,
    ::testing::Values(FilterConfig{false, false, false, false},
                      FilterConfig{true, false, false, false},
                      FilterConfig{true, true, false, false},
                      FilterConfig{true, true, true, false},
                      FilterConfig{true, true, false, true},
                      FilterConfig{false, false, true, true},
                      FilterConfig{true, true, true, true}));

// ------------------------------------------------------------- size cut --

// The posting walk stops each list at the size cut: from some tuple on it
// skips every set with min(|Q|, |C|) below SearchStats::size_cut. Over
// random workloads at N ∈ {1, 2, 4} contiguous shards (searched one after
// another under the shared θlb), with feedback on and off, every set under
// the cut must be one the oracle rules out — min(|Q|, |C|) and SO both
// below θ*k − ε — and the answers must equal the oracle's.
TEST(ExactnessTest, SizeCutSkipsOnlySetsBelowThetaStar) {
  size_t cut_sets = 0;
  for (const uint64_t seed : {5001u, 5002u, 5003u}) {
    auto w = MakeRandomWorkload(200 + 40 * (seed % 3), 800, 3, 40, seed);
    const index::SetCollection& sets = w.corpus.sets;
    std::vector<std::unique_ptr<serve::ShardCoordinator>> coordinators;
    for (const size_t shards : {1, 2, 4}) {
      serve::ShardOptions options;
      options.num_shards = shards;
      coordinators.push_back(std::make_unique<serve::ShardCoordinator>(
          &sets, w.index.get(), options));
    }
    for (SetId qid = 0; qid < sets.size(); qid += 23) {
      const auto q = sets.Tokens(qid);
      const Score alpha = 0.75;
      const auto oracle = OracleRanking(sets, q, *w.sim, alpha);
      std::vector<Score> so(sets.size(), 0.0);
      for (const auto& [id, score] : oracle) so[id] = score;
      for (const auto& coordinator : coordinators) {
        for (const bool feedback : {true, false}) {
          for (const size_t k : {1, 5, 10}) {
            SearchParams params;
            params.k = k;
            params.alpha = alpha;
            params.use_stream_feedback = feedback;
            const SearchResult result =
                SearchShards(*coordinator, q, params);
            const std::string label =
                "seed " + std::to_string(seed) + " shards " +
                std::to_string(coordinator->num_shards()) +
                (feedback ? " feedback" : " drain") + " q " +
                std::to_string(qid) + " k " + std::to_string(k);
            const Score theta_star = OracleKthScore(oracle, k);
            ASSERT_EQ(result.topk.size(), std::min(k, oracle.size())) << label;
            EXPECT_NEAR(result.KthScore(), theta_star, kTol) << label;
            for (const ResultEntry& entry : result.topk) {
              EXPECT_NEAR(entry.score, so[entry.set], kTol) << label;
            }
            for (SetId id = 0; id < sets.size(); ++id) {
              const size_t capacity = std::min(q.size(), sets.SetSize(id));
              if (capacity >= result.stats.size_cut) continue;
              ++cut_sets;
              EXPECT_LT(static_cast<Score>(capacity), theta_star - kScoreEps)
                  << label << " set " << id;
              EXPECT_LT(so[id], theta_star - kScoreEps)
                  << label << " set " << id;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(cut_sets, 0u) << "no query reached a size cut";
}

// ------------------------------------------------------- stress sampling --

TEST(ExactnessTest, RandomizedStress) {
  // Many small random instances across seeds; any bound or filter bug
  // surfaces as a θ*k mismatch here.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    auto w = MakeRandomWorkload(60 + seed * 5, 300 + seed * 20, 3, 18, seed * 7);
    const serve::ShardCoordinator coordinator(&w.corpus.sets, w.index.get(),
                                              {.num_shards = 1 + seed % 4});
    const SetId qid = static_cast<SetId>(seed * 3 % w.corpus.sets.size());
    const auto q = w.corpus.sets.Tokens(qid);
    SearchParams params;
    params.k = 1 + seed % 9;
    params.alpha = 0.65 + 0.03 * (seed % 10);
    const SearchResult result = SearchShards(coordinator, q, params);
    ExpectExactTopK(w.corpus.sets, q, *w.sim, params.alpha, result, params.k,
                    "stress seed=" + std::to_string(seed));
  }
}

}  // namespace
}  // namespace koios::core
