// The θlb stream-feedback loop: exactness of feedback-terminated searches
// against the brute-force oracle AND against a full drain-to-α run, plus
// the regression guarantee that the stream actually stops strictly above α
// when the top-k saturates early.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "koios/core/edge_cache.h"
#include "koios/core/searcher.h"
#include "koios/data/string_corpus.h"
#include "koios/matching/hungarian.h"
#include "koios/matching/semantic_overlap.h"
#include "koios/sim/exact_knn_index.h"
#include "koios/sim/jaccard_qgram_similarity.h"
#include "koios/sim/token_stream.h"
#include "test_util.h"

namespace koios::core {
namespace {

using testing::MakeRandomWorkload;
using testing::OracleKthScore;
using testing::OracleRanking;

constexpr double kTol = 1e-9;

// Runs the same query with feedback on and off and checks:
//  * both results are identical entry by entry (set ids and exact scores),
//  * both match the brute-force oracle (θ*k, the score at every rank and
//    every reported SO),
//  * feedback never produces more tuples than the drain.
// Returns the feedback run.
SearchResult ExpectFeedbackExact(const index::SetCollection& sets,
                                 const sim::SimilarityIndex& index,
                                 const sim::SimilarityFunction& sim,
                                 std::span<const TokenId> q,
                                 size_t partitions, size_t k, Score alpha,
                                 const std::string& label) {
  SearcherOptions options;
  options.num_partitions = partitions;
  KoiosSearcher searcher(&sets, &index, options);

  SearchParams feedback;
  feedback.k = k;
  feedback.alpha = alpha;
  feedback.use_stream_feedback = true;
  SearchParams drain = feedback;
  drain.use_stream_feedback = false;

  const SearchResult rf = searcher.Search(q, feedback);
  const SearchResult rd = searcher.Search(q, drain);

  // Bit-identical top-k between the two modes.
  EXPECT_EQ(rf.topk.size(), rd.topk.size()) << label;
  for (size_t i = 0; i < std::min(rf.topk.size(), rd.topk.size()); ++i) {
    EXPECT_EQ(rf.topk[i].set, rd.topk[i].set) << label << " entry " << i;
    EXPECT_DOUBLE_EQ(rf.topk[i].score, rd.topk[i].score)
        << label << " entry " << i;
  }

  // Both against the independent oracle.
  const auto oracle = OracleRanking(sets, q, sim, alpha);
  const Score theta_star = OracleKthScore(oracle, k);
  for (const SearchResult* r : {&rf, &rd}) {
    EXPECT_EQ(r->topk.size(), std::min(k, oracle.size())) << label;
    if (r->topk.empty()) continue;
    EXPECT_NEAR(r->KthScore(), theta_star, kTol) << label;
    for (size_t i = 0; i < r->topk.size() && i < oracle.size(); ++i) {
      const ResultEntry& entry = r->topk[i];
      EXPECT_NEAR(entry.score, oracle[i].second, kTol)
          << label << " rank " << i;
      const Score truth = matching::SemanticOverlap(
          q, sets.Tokens(entry.set), sim, alpha);
      EXPECT_NEAR(entry.score, truth, kTol) << label << " set " << entry.set;
    }
  }

  // The whole point: feedback must not produce more than the drain, and
  // the drain must report no stop (it ran to α).
  EXPECT_LE(rf.stats.stream_tuples_produced, rd.stats.stream_tuples_produced)
      << label;
  EXPECT_EQ(rd.stats.stream_stop_sim, 0.0) << label;
  return rf;
}

// ------------------------------------------------- exactness, k x p grid --

class FeedbackExactnessTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(FeedbackExactnessTest, MatchesDrainAndBruteForce) {
  const auto [partitions, k] = GetParam();
  auto w = MakeRandomWorkload(140, 650, 5, 25, 7000 + partitions * 17 + k);
  for (SetId qid : {SetId{1}, SetId{57}}) {
    ExpectFeedbackExact(w.corpus.sets, *w.index, *w.sim,
                        w.corpus.sets.Tokens(qid), partitions, k, 0.75,
                        "p=" + std::to_string(partitions) +
                            " k=" + std::to_string(k) +
                            " q=" + std::to_string(qid));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PartitionKGrid, FeedbackExactnessTest,
    ::testing::Combine(::testing::Values<size_t>(1, 4),      // partitions
                       ::testing::Values<size_t>(1, 5, 20)));  // k

// ------------------------------------- q-gram Jaccard (koios_cli default) --

// A string corpus with typo variants on which some searches stop above α.
data::StringCorpusSpec QGramSpec() {
  data::StringCorpusSpec spec;
  spec.num_sets = 400;
  spec.num_base_words = 200;
  spec.seed = 11;
  return spec;
}

TEST(StreamFeedbackTest, JaccardQGramFeedbackMatchesDrainAndOracle) {
  // koios_cli's default configuration: the exact index over q-gram Jaccard
  // on a string corpus with typo variants. Where the stream stops above α,
  // EdgeCache::BuildMatrixInto completes the below-stop edges through
  // JaccardQGramSimilarity::SimilarityBatchMulti, so at least one (k, α)
  // must stop early for this case to cover that path.
  const data::StringCorpus corpus = data::GenerateStringCorpus(QGramSpec());
  const sim::JaccardQGramSimilarity jaccard(&corpus.dict, 3);
  const sim::ExactKnnIndex index(corpus.vocabulary, &jaccard);

  bool stopped_early = false;
  for (size_t k : {size_t{1}, size_t{5}}) {
    for (Score alpha : {0.3, 0.5}) {
      for (SetId qid : {SetId{41}, SetId{77}}) {
        const SearchResult rf = ExpectFeedbackExact(
            corpus.sets, index, jaccard, corpus.sets.Tokens(qid), 1, k, alpha,
            "k=" + std::to_string(k) + " alpha=" + std::to_string(alpha) +
                " q=" + std::to_string(qid));
        stopped_early |= rf.stats.stream_stop_sim > 0.0;
      }
    }
  }
  EXPECT_TRUE(stopped_early) << "no (k, alpha) stopped the stream above alpha";
}

// --------------------------------------------------------- stop above α --

TEST(StreamFeedbackTest, StopsStrictlyAboveAlphaOnSkewedCorpus) {
  // Querying a stored set pushes θlb to |Q| through the self-match tuples
  // almost immediately (the set's own greedy matching completes first), so
  // with k = 1 the stop similarity τ = (θlb − ε)/|Q| ≈ 1 and the producer
  // must cut the skewed corpus's long α-tail off instead of draining it.
  auto w = MakeRandomWorkload(200, 800, 8, 30, 8101);
  const SetId query_set = 13;
  const auto q = w.corpus.sets.Tokens(query_set);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());

  SearchParams params;
  params.k = 1;
  params.alpha = 0.5;  // deep drain without feedback
  const SearchResult rf = searcher.Search(q, params);

  SearchParams drain = params;
  drain.use_stream_feedback = false;
  const SearchResult rd = searcher.Search(q, drain);

  EXPECT_GT(rf.stats.stream_stop_sim, params.alpha)
      << "feedback should stop the stream above α";
  EXPECT_LT(rf.stats.stream_tuples_produced, rd.stats.stream_tuples_produced)
      << "feedback should prune producer work";
  // Same exact answer regardless.
  ASSERT_EQ(rf.topk.size(), rd.topk.size());
  for (size_t i = 0; i < rf.topk.size(); ++i) {
    EXPECT_EQ(rf.topk[i].set, rd.topk[i].set);
    EXPECT_DOUBLE_EQ(rf.topk[i].score, rd.topk[i].score);
  }
}

TEST(StreamFeedbackTest, AnswerNeedsAnEdgeBelowTheStop) {
  // Query {q1, q2, q3}, α = 0.3, k = 2, over A = {q1, q2, q3},
  // D = {q1, q2, w}, E = {q1, x, y} and a set of 20 fillers. q1's 20
  // filler edges at 0.4 sit above D's q3–w edge at 0.35, so once A (3.0)
  // and D fill the top-2 the stream stops at 0.4 without producing the
  // 0.35 edge. D's answer, 1 + 1 + 0.35 = 2.35, is exact only if post-
  // processing completes that below-stop edge: without it D reads 2.0,
  // which still beats E (1 + 0.9 = 1.9) and would be returned wrong.
  constexpr TokenId q1 = 0, q2 = 1, q3 = 2, w = 3, x = 4, y = 5;
  constexpr TokenId kFirstFiller = 6, kFillers = 20;
  index::SetCollection sets;
  sets.AddSet(std::vector<TokenId>{q1, q2, q3});  // A
  sets.AddSet(std::vector<TokenId>{q1, q2, w});   // D
  sets.AddSet(std::vector<TokenId>{q1, x, y});    // E
  std::vector<TokenId> fillers;
  for (TokenId f = kFirstFiller; f < kFirstFiller + kFillers; ++f) {
    fillers.push_back(f);
  }
  sets.AddSet(fillers);

  testing::TableSimilarity sim;
  sim.Set(q2, x, 0.9);
  sim.Set(q3, w, 0.35);
  sim.Set(q3, y, 0.2);  // below α: no edge
  for (const TokenId f : fillers) sim.Set(q1, f, 0.4);
  std::vector<TokenId> vocabulary;
  for (TokenId t = 0; t < kFirstFiller + kFillers; ++t) vocabulary.push_back(t);
  const sim::ExactKnnIndex index(vocabulary, &sim);

  const std::vector<TokenId> q = {q1, q2, q3};
  const SearchResult rf =
      ExpectFeedbackExact(sets, index, sim, q, /*partitions=*/1, /*k=*/2,
                          /*alpha=*/0.3, "below-stop edge");
  ASSERT_EQ(rf.topk.size(), 2u);
  EXPECT_EQ(rf.topk[0].set, 0u);
  EXPECT_NEAR(rf.topk[0].score, 3.0, kTol);
  EXPECT_EQ(rf.topk[1].set, 1u);
  EXPECT_NEAR(rf.topk[1].score, 2.35, kTol);
  EXPECT_GT(rf.stats.stream_stop_sim, 0.35)
      << "the stream must stop above D's q3–w edge for this test to bite";

  KoiosSearcher searcher(&sets, &index);
  SearchParams drain;
  drain.k = 2;
  drain.alpha = 0.3;
  drain.use_stream_feedback = false;
  EXPECT_LT(rf.stats.stream_tuples_produced,
            searcher.Search(q, drain).stats.stream_tuples_produced);
}

TEST(StreamFeedbackTest, PartitionedSearchSharesGlobalTheta) {
  // §VI: the stop machinery derives from the cross-partition
  // GlobalThreshold. In a serial 4-partition search the partition holding
  // the query set publishes θlb = |Q|, after which every later partition's
  // consumer breaks almost immediately — aggregate consumption must drop
  // well below the drain's, and production must never exceed it.
  auto w = MakeRandomWorkload(200, 800, 8, 30, 8102);
  SearcherOptions options;
  options.num_partitions = 4;
  KoiosSearcher searcher(&w.corpus.sets, w.index.get(), options);
  const auto q = w.corpus.sets.Tokens(21);
  SearchParams params;
  params.k = 1;
  params.alpha = 0.55;
  const SearchResult serial = searcher.Search(q, params);

  SearchParams drain = params;
  drain.use_stream_feedback = false;
  const SearchResult drained = searcher.Search(q, drain);
  EXPECT_LT(serial.stats.stream_tuples, drained.stats.stream_tuples);
  EXPECT_LE(serial.stats.stream_tuples_produced,
            drained.stats.stream_tuples_produced);
}

// ------------------------------------------ matrix completion, directly --

// A cache whose consumer stopped pulling early must still hand exact
// matching the full simα matrix: the missing below-stop edges are
// completed through the similarity's batch kernels. Checks the matrix of
// each of the first `num_sets` sets against the oracle.
void ExpectCompletesBelowStopEdges(const index::SetCollection& sets,
                                   const sim::SimilarityIndex& index,
                                   const sim::SimilarityFunction& sim,
                                   SetId query_set, Score alpha,
                                   SetId num_sets) {
  const auto qs = sets.Tokens(query_set);
  std::vector<TokenId> q(qs.begin(), qs.end());
  sim::TokenStream stream(q, index, alpha, [](TokenId) { return true; });
  // The consumer stops at a fixed similarity well above α: the self-matches
  // at 1.0 are produced, the tail is not.
  EdgeCache cache(&stream, &sim);
  std::vector<sim::StreamTuple> buf(EdgeCache::kPullChunk);
  size_t from = 0;
  while (const size_t n = cache.NextTuples(from, buf)) {
    from += n;
    if (buf[n - 1].sim < 0.9) break;
  }
  cache.FinishProduction();
  ASSERT_FALSE(cache.ExhaustedToAlpha());
  ASSERT_GE(cache.stop_sim(), alpha);

  for (SetId id = 0; id < num_sets; ++id) {
    std::vector<uint32_t> rows, cols;
    const auto m = cache.BuildMatrix(sets.Tokens(id), &rows, &cols);
    const Score via_cache = matching::HungarianMatcher::Solve(m).score;
    const Score direct =
        matching::SemanticOverlap(q, sets.Tokens(id), sim, alpha);
    EXPECT_NEAR(via_cache, direct, 1e-9) << "set " << id;
  }
}

TEST(StreamFeedbackTest, BuildMatrixCompletesBelowStopEdges) {
  auto w = MakeRandomWorkload(80, 400, 6, 18, 8103);
  ExpectCompletesBelowStopEdges(w.corpus.sets, *w.index, *w.sim, 2, 0.6, 40);
}

TEST(StreamFeedbackTest, JaccardBuildMatrixCompletesBelowStopEdges) {
  // The same through JaccardQGramSimilarity::SimilarityBatchMulti.
  const data::StringCorpus corpus = data::GenerateStringCorpus(QGramSpec());
  const sim::JaccardQGramSimilarity jaccard(&corpus.dict, 3);
  const sim::ExactKnnIndex index(corpus.vocabulary, &jaccard);
  ExpectCompletesBelowStopEdges(corpus.sets, index, jaccard, 41, 0.3, 400);
}

// ---------------------------------------------------- survivor budget --

TEST(StreamFeedbackTest, StopRecordsFixedSurvivorBudget) {
  // The feedback stop tolerates max(32, 4k) survivors: a stopping search
  // records exactly that budget.
  auto w = MakeRandomWorkload(200, 800, 8, 30, 8106);
  const auto q = w.corpus.sets.Tokens(13);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  SearchParams params;
  params.k = 1;
  params.alpha = 0.5;
  const SearchResult r = searcher.Search(q, params);
  ASSERT_GT(r.stats.stream_stop_sim, 0.0) << "the search should stop early";
  EXPECT_EQ(r.stats.stream_survivor_budget, std::max<size_t>(32, 4 * params.k));
}

// ------------------------------------------------------ workspace reuse --

TEST(StreamFeedbackTest, EmWorkspaceIsReused) {
  auto w = MakeRandomWorkload(150, 500, 5, 25, 8104);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  const auto q = w.corpus.sets.Tokens(7);
  SearchParams params;
  params.k = 10;
  params.alpha = 0.7;
  const SearchResult r = searcher.Search(q, params);
  const size_t solves = r.stats.em_computed + r.stats.em_early_terminated +
                        r.stats.result_verification_ems;
  if (solves > 1) {
    EXPECT_GT(r.stats.em_workspace_reuses, 0u);
  }
}

}  // namespace
}  // namespace koios::core
