#include <gtest/gtest.h>

#include <vector>

#include "koios/core/postprocess.h"
#include "koios/core/refinement.h"
#include "test_util.h"

namespace koios::core {
namespace {

// End-to-end harness at the phase level so stats of each filter can be
// inspected (searcher_test covers the public API).
struct PostHarness {
  PostHarness(testing::RandomWorkload* w, std::vector<TokenId> q, Score alpha)
      : workload(w),
        query(std::move(q)),
        alpha(alpha),
        inverted(w->corpus.sets) {}

  // Each run consumes a drained stream of its own (a cache has one
  // consumer).
  std::vector<ResultEntry> Run(const SearchParams& params, SearchStats* stats) {
    sim::TokenStream stream(query, *workload->index, alpha, [this](TokenId t) {
      return inverted.InVocabulary(t);
    });
    EdgeCache cache(&stream);
    RefinementPhase refinement(&inverted, query.size(), params);
    RefinementOutput refined = refinement.Run(&cache, stats);
    PostProcessor post(&workload->corpus.sets, &cache, params, nullptr);
    return post.Run(std::move(refined), stats);
  }

  testing::RandomWorkload* workload;
  std::vector<TokenId> query;
  Score alpha;
  index::InvertedIndex inverted;
};

std::vector<TokenId> QueryOf(const testing::RandomWorkload& w, SetId id) {
  const auto span = w.corpus.sets.Tokens(id);
  return {span.begin(), span.end()};
}

TEST(PostProcessTest, NoEmFilterSkipsVerifications) {
  auto w = testing::MakeRandomWorkload(150, 600, 5, 25, 601);
  PostHarness harness(&w, QueryOf(w, 0), 0.8);
  SearchParams with;
  with.k = 10;
  with.alpha = 0.8;
  with.verify_result_scores = false;
  SearchParams without = with;
  without.use_no_em_filter = false;
  SearchStats s1, s2;
  const auto r1 = harness.Run(with, &s1);
  const auto r2 = harness.Run(without, &s2);
  EXPECT_EQ(s2.no_em_skipped, 0u);
  EXPECT_LE(s1.em_computed, s2.em_computed);
  // Same k-th threshold either way (r1 scores may be LBs for No-EM sets,
  // but the *sets* must coincide in aggregate score mass).
  ASSERT_EQ(r1.size(), r2.size());
}

TEST(PostProcessTest, NoEmAdmittedSetsAreTrueTopK) {
  auto w = testing::MakeRandomWorkload(120, 500, 5, 20, 602);
  const auto query = QueryOf(w, 5);
  PostHarness harness(&w, query, 0.8);
  SearchParams params;
  params.k = 8;
  params.alpha = 0.8;
  params.verify_result_scores = false;  // keep LB scores visible
  SearchStats stats;
  const auto result = harness.Run(params, &stats);
  const auto oracle =
      testing::OracleRanking(w.corpus.sets, query, *w.sim, params.alpha);
  const Score theta_star = testing::OracleKthScore(oracle, params.k);
  for (const auto& entry : result) {
    const Score so = matching::SemanticOverlap(
        query, w.corpus.sets.Tokens(entry.set), *w.sim, params.alpha);
    EXPECT_GE(so, theta_star - 1e-6)
        << "set " << entry.set << " not in a valid top-k";
    if (!entry.exact) {
      EXPECT_LE(entry.score, so + 1e-9) << "LB reported above SO";
    }
  }
}

TEST(PostProcessTest, EarlyTerminationOnlySavesWork) {
  auto w = testing::MakeRandomWorkload(150, 600, 5, 25, 603);
  PostHarness harness(&w, QueryOf(w, 13), 0.8);
  SearchParams with;
  with.k = 10;
  with.alpha = 0.8;
  SearchParams without = with;
  without.use_em_early_termination = false;
  SearchStats s1, s2;
  const auto r1 = harness.Run(with, &s1);
  const auto r2 = harness.Run(without, &s2);
  EXPECT_EQ(s2.em_early_terminated, 0u);
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_NEAR(r1[i].score, r2[i].score, 1e-6);
  }
}

TEST(PostProcessTest, VerifyResultScoresMakesEverythingExact) {
  auto w = testing::MakeRandomWorkload(100, 400, 5, 20, 604);
  PostHarness harness(&w, QueryOf(w, 21), 0.8);
  SearchParams params;
  params.k = 10;
  params.alpha = 0.8;
  params.verify_result_scores = true;
  SearchStats stats;
  const auto result = harness.Run(params, &stats);
  for (const auto& entry : result) {
    EXPECT_TRUE(entry.exact);
  }
}

TEST(PostProcessTest, FewerPositiveSetsThanK) {
  // Tiny repository: fewer candidates than k — everything alive is the
  // result and nothing may be lost.
  auto w = testing::MakeRandomWorkload(12, 120, 4, 8, 605);
  const auto query = QueryOf(w, 0);
  PostHarness harness(&w, query, 0.8);
  SearchParams params;
  params.k = 50;
  params.alpha = 0.8;
  SearchStats stats;
  const auto result = harness.Run(params, &stats);
  const auto oracle =
      testing::OracleRanking(w.corpus.sets, query, *w.sim, params.alpha);
  EXPECT_EQ(result.size(), oracle.size());
}

TEST(PostProcessTest, GlobalThresholdMonotoneMax) {
  GlobalThreshold theta;
  EXPECT_DOUBLE_EQ(theta.Get(), 0.0);
  theta.Publish(2.5);
  theta.Publish(1.0);  // lower value ignored
  EXPECT_DOUBLE_EQ(theta.Get(), 2.5);
  theta.Publish(3.0);
  EXPECT_DOUBLE_EQ(theta.Get(), 3.0);
}

TEST(PostProcessTest, StatsPartitionPostprocessSets) {
  auto w = testing::MakeRandomWorkload(100, 500, 5, 20, 607);
  PostHarness harness(&w, QueryOf(w, 8), 0.8);
  SearchParams params;
  params.k = 10;
  params.alpha = 0.8;
  SearchStats stats;
  harness.Run(params, &stats);
  // Every surviving set is accounted for by exactly one outcome.
  EXPECT_GE(stats.postprocess_sets,
            stats.no_em_skipped + stats.em_computed + stats.em_early_terminated);
}

}  // namespace
}  // namespace koios::core
