// The θlb→producer feedback loop (ISSUE 3): exactness of
// feedback-terminated searches against the brute-force oracle AND against
// a full drain-to-α run, plus the regression guarantee that the stream
// actually stops strictly above α when the top-k saturates early.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "koios/core/edge_cache.h"
#include "koios/core/searcher.h"
#include "koios/matching/hungarian.h"
#include "koios/matching/semantic_overlap.h"
#include "koios/sim/lsh_index.h"
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
//  * both match the brute-force oracle (θ*k and every reported SO),
//  * feedback never produces more tuples than the drain.
void ExpectFeedbackExact(testing::RandomWorkload* w, SetId query_set,
                         size_t partitions, size_t k, Score alpha,
                         size_t num_threads, const std::string& label) {
  const auto q = w->corpus.sets.Tokens(query_set);
  SearcherOptions options;
  options.num_partitions = partitions;
  KoiosSearcher searcher(&w->corpus.sets, w->index.get(), options);

  SearchParams feedback;
  feedback.k = k;
  feedback.alpha = alpha;
  feedback.num_threads = num_threads;
  feedback.use_stream_feedback = true;
  SearchParams drain = feedback;
  drain.use_stream_feedback = false;

  const SearchResult rf = searcher.Search(q, feedback);
  const SearchResult rd = searcher.Search(q, drain);

  // Bit-identical top-k between the two modes.
  ASSERT_EQ(rf.topk.size(), rd.topk.size()) << label;
  for (size_t i = 0; i < rf.topk.size(); ++i) {
    EXPECT_EQ(rf.topk[i].set, rd.topk[i].set) << label << " entry " << i;
    EXPECT_DOUBLE_EQ(rf.topk[i].score, rd.topk[i].score)
        << label << " entry " << i;
  }

  // Both against the independent oracle.
  const auto oracle = OracleRanking(w->corpus.sets, q, *w->sim, alpha);
  const Score theta_star = OracleKthScore(oracle, k);
  ASSERT_EQ(rf.topk.size(), std::min(k, oracle.size())) << label;
  if (!rf.topk.empty()) {
    EXPECT_NEAR(rf.KthScore(), theta_star, kTol) << label;
    for (const ResultEntry& entry : rf.topk) {
      const Score truth = matching::SemanticOverlap(
          q, w->corpus.sets.Tokens(entry.set), *w->sim, alpha);
      EXPECT_NEAR(entry.score, truth, kTol) << label << " set " << entry.set;
    }
  }

  // The whole point: feedback must not produce more than the drain, and
  // the drain must report no stop (it ran to α).
  EXPECT_LE(rf.stats.stream_tuples_produced, rd.stats.stream_tuples_produced)
      << label;
  EXPECT_EQ(rd.stats.stream_stop_sim, 0.0) << label;
}

// ------------------------------------------------- exactness, k x p grid --

class FeedbackExactnessTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(FeedbackExactnessTest, MatchesDrainAndBruteForce) {
  const auto [partitions, k, num_threads] = GetParam();
  auto w = MakeRandomWorkload(140, 650, 5, 25, 7000 + partitions * 17 + k);
  for (SetId qid : {SetId{1}, SetId{57}}) {
    ExpectFeedbackExact(&w, qid, partitions, k, 0.75, num_threads,
                        "p=" + std::to_string(partitions) +
                            " k=" + std::to_string(k) +
                            " t=" + std::to_string(num_threads) +
                            " q=" + std::to_string(qid));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PartitionKGrid, FeedbackExactnessTest,
    ::testing::Combine(::testing::Values<size_t>(1, 4),     // partitions
                       ::testing::Values<size_t>(1, 5, 20),  // k
                       ::testing::Values<size_t>(1, 4)));    // threads

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

TEST(StreamFeedbackTest, PartitionedSearchSharesGlobalTheta) {
  // §VI: the stop machinery derives from the cross-partition
  // GlobalThreshold. In a serial 4-partition search the partition holding
  // the query set publishes θlb = |Q|, after which every later partition's
  // consumer breaks almost immediately — aggregate consumption must drop
  // well below the drain's, and production must never exceed it. The
  // threaded run (producer races the consumers, so the stop point varies)
  // must still return the identical exact answer.
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

  params.num_threads = 4;
  const SearchResult threaded = searcher.Search(q, params);
  EXPECT_LE(threaded.stats.stream_tuples_produced,
            drained.stats.stream_tuples_produced);
  ASSERT_EQ(threaded.topk.size(), serial.topk.size());
  for (size_t i = 0; i < threaded.topk.size(); ++i) {
    EXPECT_EQ(threaded.topk[i].set, serial.topk[i].set);
    EXPECT_DOUBLE_EQ(threaded.topk[i].score, serial.topk[i].score);
  }
}

// -------------------------------------------------- producer pacing race --

TEST(StreamFeedbackTest, PacedProducerWaitsForSlowConsumer) {
  // The overlapped-mode production race (ROADMAP follow-up, fixed in this
  // PR): a free-running deferred producer can drain the stream to α before
  // a slow consumer has processed enough tuples to declare its stop
  // similarity, forfeiting the feedback savings entirely. With pacing the
  // producer must stay within its lead of the consumer's hand-off
  // position, so even a deliberately slow consumer ends the stream with
  // far fewer tuples produced than a full drain.
  auto w = MakeRandomWorkload(120, 900, 8, 30, 8107);
  // A wide query (several stored sets unioned) over a low α: a deep drain,
  // so the paced/unpaced difference is unmistakable.
  std::vector<TokenId> q;
  for (const SetId id : {SetId{5}, SetId{9}, SetId{23}, SetId{31}}) {
    const auto qs = w.corpus.sets.Tokens(id);
    q.insert(q.end(), qs.begin(), qs.end());
  }
  std::sort(q.begin(), q.end());
  q.erase(std::unique(q.begin(), q.end()), q.end());
  const Score alpha = 0.3;  // deep α-tail: the drain is large

  // Reference: the unpaced full drain of this stream.
  size_t full_drain = 0;
  {
    sim::TokenStream stream(q, w.index.get(), alpha,
                            [](TokenId) { return true; });
    EdgeCache drain(&stream, EdgeCache::Deferred{});
    drain.Materialize();
    full_drain = drain.produced();
  }

  constexpr size_t kConsumeTarget = 128;
  constexpr size_t kChunk = 32;
  constexpr size_t kLead = 64;
  // The bound pacing must enforce: the hand-off position when the stop was
  // declared (target plus up to one pull chunk), plus the lead, plus one
  // publish batch of producer overshoot.
  constexpr size_t kPacedBound = kConsumeTarget + kChunk + kLead + 32;
  ASSERT_GT(full_drain, 2 * kPacedBound)
      << "corpus too small to distinguish a paced run from a drain";

  SearchContext ctx;
  ctx.BeginSearch(/*num_consumers=*/1);
  sim::TokenStream stream(q, w.index.get(), alpha,
                          [](TokenId) { return true; });
  EdgeCache cache(
      &stream, EdgeCache::Deferred{}, w.sim.get(),
      [&ctx] { return ctx.stop_controller().ProducerStop(); }, nullptr,
      /*expected_consumers=*/1, /*producer_lead=*/kLead);
  ASSERT_TRUE(cache.PacingEnabled());

  std::thread producer([&] { cache.Materialize(); });
  {
    // Deliberately slow consumer: the warm cursor cache lets the producer
    // build tuples orders of magnitude faster than this loop consumes
    // them, which is exactly the racy regime.
    EdgeCache::ConsumerGuard consumer(&cache);
    std::vector<sim::StreamTuple> chunk(kChunk);
    size_t consumed = 0;
    Score last_sim = 1.0;
    while (consumed < kConsumeTarget) {
      const size_t n =
          cache.NextTuples(consumed, std::span<sim::StreamTuple>(chunk));
      if (n == 0) break;
      consumed += n;
      consumer.Advance(consumed);
      last_sim = chunk[n - 1].sim;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ctx.stop_controller().PublishConsumerStop(last_sim);
  }
  producer.join();

  EXPECT_FALSE(cache.ExhaustedToAlpha());
  EXPECT_LE(cache.produced(), kPacedBound)
      << "producer outran its lead over the slow consumer";
  EXPECT_LT(cache.produced(), full_drain / 2)
      << "slow consumer still lost the streaming savings";
}

// ------------------------------------------ matrix completion, directly --

TEST(StreamFeedbackTest, BuildMatrixCompletesBelowStopEdges) {
  // A cache whose producer was stopped early must still hand exact
  // matching the full simα matrix: the missing below-stop edges are
  // completed through the similarity's batch kernels.
  auto w = MakeRandomWorkload(80, 400, 6, 18, 8103);
  const auto qs = w.corpus.sets.Tokens(2);
  std::vector<TokenId> q(qs.begin(), qs.end());
  const Score alpha = 0.6;

  sim::TokenStream stream(q, w.index.get(), alpha,
                          [](TokenId) { return true; });
  // Fixed stop threshold well above α: the stream is guaranteed to stop
  // early (self-matches at 1.0 are produced, the tail is withheld).
  EdgeCache cache(&stream, EdgeCache::Deferred{}, w.sim.get(),
                  [] { return 0.9; });
  cache.Materialize();
  ASSERT_FALSE(cache.ExhaustedToAlpha());
  ASSERT_GE(cache.stop_sim(), alpha);

  for (SetId id = 0; id < 40; ++id) {
    std::vector<uint32_t> rows, cols;
    const auto m = cache.BuildMatrix(w.corpus.sets.Tokens(id), &rows, &cols);
    const Score via_cache = matching::HungarianMatcher::Solve(m).score;
    const Score direct = matching::SemanticOverlap(
        q, w.corpus.sets.Tokens(id), *w.sim, alpha);
    EXPECT_NEAR(via_cache, direct, 1e-9) << "set " << id;
  }
}

// -------------------------------------------- approximate backends gate --

TEST(StreamFeedbackTest, ApproximateIndexesDoNotEnableFeedback) {
  // LSH/MinHash results are exact only w.r.t. the neighbors the probe
  // returns; matrix completion from the raw similarity would score pairs
  // the probe never surfaced and silently change results between modes.
  // The searcher must therefore keep the drain-to-α path for them.
  auto w = MakeRandomWorkload(150, 500, 5, 20, 8105, /*coverage=*/1.0);
  sim::LshIndexSpec spec;
  spec.num_tables = 16;
  spec.bits_per_table = 6;
  sim::CosineLshIndex lsh(w.corpus.vocabulary, &w.model->store(), w.sim.get(),
                          spec);
  ASSERT_FALSE(lsh.exact_neighbors());
  ASSERT_NE(lsh.similarity(), nullptr);
  KoiosSearcher searcher(&w.corpus.sets, &lsh);
  const auto q = w.corpus.sets.Tokens(3);
  SearchParams feedback;
  feedback.k = 5;
  feedback.alpha = 0.7;
  SearchParams drain = feedback;
  drain.use_stream_feedback = false;
  const SearchResult rf = searcher.Search(q, feedback);
  const SearchResult rd = searcher.Search(q, drain);
  // Feedback is gated off: both runs drain identically.
  EXPECT_EQ(rf.stats.stream_stop_sim, 0.0);
  EXPECT_EQ(rf.stats.stream_tuples_produced, rd.stats.stream_tuples_produced);
  ASSERT_EQ(rf.topk.size(), rd.topk.size());
  for (size_t i = 0; i < rf.topk.size(); ++i) {
    EXPECT_EQ(rf.topk[i].set, rd.topk[i].set);
    EXPECT_DOUBLE_EQ(rf.topk[i].score, rd.topk[i].score);
  }
}

// ------------------------------------------- adaptive survivor budget --

TEST(StreamFeedbackTest, AdaptiveSurvivorBudgetStaysExact) {
  // The adaptive (rent-to-buy) budget only moves WHERE the stop lands, so
  // both policies must return the drain's exact answer, and a stop under
  // either must record the budget that authorized it.
  auto w = MakeRandomWorkload(200, 800, 8, 30, 8105);
  const auto q = w.corpus.sets.Tokens(21);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());

  SearchParams drain;
  drain.k = 5;
  drain.alpha = 0.6;
  drain.use_stream_feedback = false;
  const SearchResult rd = searcher.Search(q, drain);

  for (const double em_cost_tuples : {4.0, 64.0, 4096.0}) {
    SearchParams adaptive = drain;
    adaptive.use_stream_feedback = true;
    adaptive.use_adaptive_survivor_budget = true;
    adaptive.adaptive_em_cost_tuples = em_cost_tuples;
    const SearchResult ra = searcher.Search(q, adaptive);

    ASSERT_EQ(ra.topk.size(), rd.topk.size()) << "ratio " << em_cost_tuples;
    for (size_t i = 0; i < ra.topk.size(); ++i) {
      EXPECT_EQ(ra.topk[i].set, rd.topk[i].set) << "ratio " << em_cost_tuples;
      EXPECT_DOUBLE_EQ(ra.topk[i].score, rd.topk[i].score)
          << "ratio " << em_cost_tuples;
    }
    EXPECT_LE(ra.stats.stream_tuples_produced, rd.stats.stream_tuples_produced);
    if (ra.stats.stream_stop_sim > 0.0) {
      // The consumer stopped: the budget in force was recorded and honors
      // the floor.
      EXPECT_GE(ra.stats.stream_survivor_budget, 32u);
    }
  }
}

TEST(StreamFeedbackTest, AdaptiveBudgetDefaultsOff) {
  // Default params keep the fixed max(32, 4k) policy: a stopping search
  // records exactly that budget.
  auto w = MakeRandomWorkload(200, 800, 8, 30, 8106);
  const auto q = w.corpus.sets.Tokens(13);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  SearchParams params;
  params.k = 1;
  params.alpha = 0.5;
  ASSERT_FALSE(params.use_adaptive_survivor_budget);
  const SearchResult r = searcher.Search(q, params);
  if (r.stats.stream_stop_sim > 0.0) {
    EXPECT_EQ(r.stats.stream_survivor_budget, std::max<size_t>(32, 4 * params.k));
  }
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
