#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include "koios/core/edge_cache.h"
#include "koios/core/refinement.h"
#include "koios/index/inverted_index.h"
#include "koios/sim/exact_knn_index.h"
#include "koios/sim/token_stream.h"
#include "test_util.h"

namespace koios::core {
namespace {

struct RefinementHarness {
  explicit RefinementHarness(testing::RandomWorkload* w, std::vector<TokenId> q,
                             Score alpha)
      : workload(w),
        query(std::move(q)),
        inverted(w->corpus.sets),
        stream(query, w->index.get(), alpha,
               [this](TokenId t) { return inverted.InVocabulary(t); }),
        cache(&stream) {}

  RefinementOutput Run(const SearchParams& params, SearchStats* stats) {
    RefinementPhase phase(&workload->corpus.sets, &inverted, query.size(),
                          params);
    return phase.Run(&cache, stats);
  }

  testing::RandomWorkload* workload;
  std::vector<TokenId> query;
  index::InvertedIndex inverted;
  sim::TokenStream stream;
  EdgeCache cache;
};

std::vector<TokenId> QueryOf(const testing::RandomWorkload& w, SetId id) {
  const auto span = w.corpus.sets.Tokens(id);
  return {span.begin(), span.end()};
}

TEST(RefinementTest, SurvivorsContainEveryTrueTopKSet) {
  auto w = testing::MakeRandomWorkload(100, 500, 5, 20, 501);
  const auto query = QueryOf(w, 4);
  const Score alpha = 0.8;
  RefinementHarness harness(&w, query, alpha);
  SearchParams params;
  params.k = 5;
  params.alpha = alpha;
  SearchStats stats;
  const RefinementOutput out = harness.Run(params, &stats);

  const auto oracle =
      testing::OracleRanking(w.corpus.sets, query, *w.sim, alpha);
  const Score theta_star = testing::OracleKthScore(oracle, params.k);
  std::set<SetId> survivor_ids;
  for (const auto& s : out.survivors) survivor_ids.insert(s.set);
  // No set scoring strictly above θ*k may be refinement-pruned; ties may
  // legitimately go either way.
  for (const auto& [id, so] : oracle) {
    if (so > theta_star + 1e-9) {
      EXPECT_TRUE(survivor_ids.count(id))
          << "true top set " << id << " (SO " << so << ") pruned";
    }
  }
}

TEST(RefinementTest, BoundsBracketTrueScore) {
  auto w = testing::MakeRandomWorkload(80, 400, 5, 18, 502);
  const auto query = QueryOf(w, 7);
  const Score alpha = 0.75;
  RefinementHarness harness(&w, query, alpha);
  SearchParams params;
  params.k = 10;
  params.alpha = alpha;
  SearchStats stats;
  const RefinementOutput out = harness.Run(params, &stats);
  for (const auto& state : out.survivors) {
    const Score so = matching::SemanticOverlap(
        query, w.corpus.sets.Tokens(state.set), *w.sim, alpha);
    EXPECT_LE(state.partial_score, so + 1e-9) << "LB above SO";
    EXPECT_GE(state.UpperBound(out.last_sim) + 1e-9, so) << "UB below SO";
    EXPECT_GE(state.partial_score + 1e-9, so / 2.0) << "greedy guarantee";
  }
}

TEST(RefinementTest, LbInitializedWithVanillaOverlap) {
  // A candidate set sharing elements with the query must have LB at least
  // its vanilla overlap (self matches arrive first at sim 1.0).
  auto w = testing::MakeRandomWorkload(60, 300, 8, 20, 503);
  const auto query = QueryOf(w, 2);
  std::vector<TokenId> sorted_query = query;
  std::sort(sorted_query.begin(), sorted_query.end());
  RefinementHarness harness(&w, query, 0.8);
  SearchParams params;
  params.k = 10;
  params.alpha = 0.8;
  SearchStats stats;
  const RefinementOutput out = harness.Run(params, &stats);
  for (const auto& state : out.survivors) {
    const size_t vanilla =
        w.corpus.sets.VanillaOverlap(sorted_query, state.set);
    EXPECT_GE(state.partial_score + 1e-9, static_cast<Score>(vanilla))
        << "set " << state.set;
  }
}

TEST(RefinementTest, FiltersOnlyReduceSurvivors) {
  auto w = testing::MakeRandomWorkload(150, 600, 5, 25, 504);
  const auto query = QueryOf(w, 11);
  RefinementHarness harness(&w, query, 0.8);
  SearchParams with, without;
  with.k = without.k = 10;
  with.alpha = without.alpha = 0.8;
  without.use_iub_filter = false;
  SearchStats s1, s2;
  const auto filtered = harness.Run(with, &s1);
  const auto unfiltered = harness.Run(without, &s2);
  EXPECT_LE(filtered.survivors.size(), unfiltered.survivors.size());
  EXPECT_GT(s1.iub_filtered, 0u);
  EXPECT_EQ(s2.iub_filtered, 0u);
  EXPECT_EQ(s1.candidates, s2.candidates);
}

TEST(RefinementTest, BucketAndNaiveIubAgreeOnSurvivorSets) {
  // The bucketized filter is an *implementation* of the naive per-tuple
  // scan; both must prune exactly the same sets.
  auto w = testing::MakeRandomWorkload(120, 500, 5, 20, 505);
  const auto query = QueryOf(w, 9);
  RefinementHarness harness(&w, query, 0.78);
  SearchParams bucketed, naive;
  bucketed.k = naive.k = 8;
  bucketed.alpha = naive.alpha = 0.78;
  naive.use_bucket_index = false;
  SearchStats s1, s2;
  const auto a = harness.Run(bucketed, &s1);
  const auto b = harness.Run(naive, &s2);
  std::set<SetId> sa, sb;
  for (const auto& s : a.survivors) sa.insert(s.set);
  for (const auto& s : b.survivors) sb.insert(s.set);
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(s1.iub_filtered, s2.iub_filtered);
}

TEST(RefinementTest, ThetaLbNeverExceedsThetaStar) {
  auto w = testing::MakeRandomWorkload(90, 400, 5, 20, 506);
  const auto query = QueryOf(w, 3);
  const Score alpha = 0.8;
  RefinementHarness harness(&w, query, alpha);
  SearchParams params;
  params.k = 7;
  params.alpha = alpha;
  SearchStats stats;
  const RefinementOutput out = harness.Run(params, &stats);
  const auto oracle =
      testing::OracleRanking(w.corpus.sets, query, *w.sim, alpha);
  EXPECT_LE(out.llb.Bottom(),
            testing::OracleKthScore(oracle, params.k) + 1e-9);
}

TEST(RefinementTest, EmptyStreamYieldsNoCandidates) {
  auto w = testing::MakeRandomWorkload(50, 300, 5, 15, 507);
  // Query of one token far outside the vocabulary: no self match, no edges.
  RefinementHarness harness(&w, {static_cast<TokenId>(9'999'999)}, 0.8);
  SearchParams params;
  params.alpha = 0.8;
  SearchStats stats;
  const RefinementOutput out = harness.Run(params, &stats);
  EXPECT_TRUE(out.survivors.empty());
  EXPECT_EQ(stats.candidates, 0u);
}

TEST(RefinementTest, StatsCountsAreConsistent) {
  auto w = testing::MakeRandomWorkload(100, 500, 5, 20, 508);
  const auto query = QueryOf(w, 1);
  RefinementHarness harness(&w, query, 0.8);
  SearchParams params;
  params.k = 10;
  params.alpha = 0.8;
  SearchStats stats;
  const RefinementOutput out = harness.Run(params, &stats);
  EXPECT_EQ(stats.candidates, stats.iub_filtered + out.survivors.size());
  EXPECT_EQ(stats.stream_tuples, harness.cache.tuples().size());
  EXPECT_GT(stats.postprocess_sets, 0u);
}

TEST(RefinementTest, ScratchBytesDoNotDependOnEarlierQueries) {
  // The scratch is reused per thread, so its capacity is whatever the
  // thread's largest query needed. The reported bytes must count only the
  // query itself, and so repeat whatever the thread ran before.
  auto w = testing::MakeRandomWorkload(300, 1200, 4, 40, 733);
  // A thread may also have served a larger collection with longer queries
  // (more slots, records, bitsets and heap entries than the probe needs).
  auto big = testing::MakeRandomWorkload(3000, 2000, 20, 60, 734);
  auto scratch_of = [](testing::RandomWorkload* workload, SetId id,
                       Score alpha) {
    RefinementHarness harness(workload, QueryOf(*workload, id), alpha);
    SearchParams params;
    params.k = 5;
    params.alpha = alpha;
    SearchStats stats;
    harness.Run(params, &stats);
    return stats.memory.Get("refinement.scratch");
  };
  // Runs `warmup` then the probe on a fresh thread (fresh scratch) and
  // returns what the probe reported.
  auto probe_after = [&](const std::function<void()>& warmup) {
    size_t bytes = 0;
    std::thread fresh_thread([&] {
      warmup();
      bytes = scratch_of(&w, 7, 0.7);
    });
    fresh_thread.join();
    return bytes;
  };
  size_t big_peak = 0;
  const size_t cold = probe_after([] {});
  const size_t after_big = probe_after([&] {
    for (SetId id = 0; id < 50; id += 10) {
      big_peak = std::max(big_peak, scratch_of(&big, id, 0.5));
    }
  });
  const size_t after_small = probe_after([&] {
    for (SetId id = 100; id < 150; id += 10) scratch_of(&w, id, 0.9);
  });
  EXPECT_GT(cold, 0u);
  EXPECT_GT(big_peak, 4 * cold);  // the history needed far more
  EXPECT_EQ(after_big, cold);
  EXPECT_EQ(after_small, cold);
}

}  // namespace
}  // namespace koios::core
