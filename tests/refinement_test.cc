#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <set>
#include <string>
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
        stream(query, *w->index, alpha,
               [this](TokenId t) { return inverted.InVocabulary(t); }),
        cache(&stream) {}

  RefinementOutput Run(const SearchParams& params, SearchStats* stats) {
    RefinementPhase phase(&inverted, query.size(), params);
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

// One refinement run over a fresh stream of `query`. With stream feedback
// the stream is produced on demand and the consumer may stop early, as in
// KoiosSearcher; without it the stream drains to α.
RefinementOutput RefineOnce(const index::SetCollection& sets,
                            const sim::SimilarityIndex& index,
                            const std::vector<TokenId>& query,
                            const SearchParams& params, SearchStats* stats) {
  const index::InvertedIndex inverted(sets);
  sim::TokenStream stream(query, index, params.alpha, [&](TokenId t) {
    return inverted.InVocabulary(t);
  });
  RefinementPhase phase(&inverted, query.size(), params);
  if (!params.use_stream_feedback) {
    EdgeCache cache(&stream);
    return phase.Run(&cache, stats);
  }
  SearchContext ctx;
  EdgeCache cache(&stream, index.similarity(), &ctx);
  RefinementOutput out = phase.Run(&cache, stats, &ctx);
  cache.FinishProduction();
  return out;
}

uint64_t Bits(Score s) { return std::bit_cast<uint64_t>(s); }

// Everything refinement hands on, compared bit for bit: its work counters,
// the stream position it stopped at, θlb's list and every survivor record.
void ExpectSameRefinement(const RefinementOutput& a, const SearchStats& sa,
                          const RefinementOutput& b, const SearchStats& sb,
                          const std::string& label) {
  EXPECT_EQ(sa.candidates, sb.candidates) << label;
  EXPECT_EQ(sa.iub_filtered, sb.iub_filtered) << label;
  EXPECT_EQ(sa.stream_tuples, sb.stream_tuples) << label;
  EXPECT_EQ(sa.postprocess_sets, sb.postprocess_sets) << label;
  EXPECT_EQ(Bits(a.ub_slack), Bits(b.ub_slack)) << label;
  EXPECT_EQ(Bits(a.last_sim), Bits(b.last_sim)) << label;
  const auto llb_a = a.llb.Descending(), llb_b = b.llb.Descending();
  ASSERT_EQ(llb_a.size(), llb_b.size()) << label;
  for (size_t i = 0; i < llb_a.size(); ++i) {
    EXPECT_EQ(llb_a[i].first, llb_b[i].first) << label << " llb " << i;
    EXPECT_EQ(Bits(llb_a[i].second), Bits(llb_b[i].second))
        << label << " llb " << i;
  }
  auto by_set = [](std::vector<Survivor> v) {
    std::sort(v.begin(), v.end(), [](const Survivor& x, const Survivor& y) {
      return x.set < y.set;
    });
    return v;
  };
  const std::vector<Survivor> va = by_set(a.survivors), vb = by_set(b.survivors);
  ASSERT_EQ(va.size(), vb.size()) << label;
  for (size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].set, vb[i].set) << label;
    EXPECT_EQ(Bits(va[i].partial_score), Bits(vb[i].partial_score)) << label;
    EXPECT_EQ(Bits(va[i].row_sum), Bits(vb[i].row_sum)) << label;
    EXPECT_EQ(va[i].remaining, vb[i].remaining) << label;
  }
}

TEST(RefinementTest, LazyAndNaiveIubAgreeBitForBit) {
  // The lazy filter checks a candidate only when touched, at the feedback
  // stop check and in the final sweep; the naive one sweeps every
  // candidate per tuple. Both must hand post-processing the same state.
  struct Shape {
    size_t sets, vocab, min_size, max_size;
    uint64_t seed;
  };
  size_t early_stops = 0;
  for (const Shape& shape : {Shape{120, 500, 5, 20, 505},
                             Shape{300, 1200, 4, 40, 733},
                             Shape{200, 400, 8, 30, 512}}) {
    auto w = testing::MakeRandomWorkload(shape.sets, shape.vocab,
                                         shape.min_size, shape.max_size,
                                         shape.seed);
    for (const SetId qid : {SetId{3}, SetId{9}}) {
      const auto query = QueryOf(w, qid);
      for (const size_t k : {1, 5, 10}) {
        for (const Score alpha : {0.7, 0.8, 0.9}) {
          for (const bool feedback : {false, true}) {
            SearchParams lazy;
            lazy.k = k;
            lazy.alpha = alpha;
            lazy.use_stream_feedback = feedback;
            SearchParams naive = lazy;
            naive.use_bucket_index = false;
            SearchStats sa, sb;
            const auto a = RefineOnce(w.corpus.sets, *w.index, query,
                                      lazy, &sa);
            const auto b = RefineOnce(w.corpus.sets, *w.index, query,
                                      naive, &sb);
            ExpectSameRefinement(
                a, sa, b, sb,
                "seed " + std::to_string(shape.seed) + " query " +
                    std::to_string(qid) + " k " + std::to_string(k) +
                    " alpha " + std::to_string(alpha) +
                    (feedback ? " feedback" : " drain"));
            if (sa.stream_survivor_budget > 0) ++early_stops;
          }
        }
      }
    }
  }
  EXPECT_GT(early_stops, 0u) << "no case reached the feedback stop";
}

// Set 0 = {10} is last touched at s = 0.95. Set 1 = {11, 12, 13} then
// lifts θlb to 2.7, which makes set 0 prunable with no later tuple
// touching it, and set 2 = {14, 15, 16} arrives at 0.75, its bound
// 3 · 0.75 below θlb. Set 2 holds three elements so that the size cut
// (min(|Q|, |C|) < θlb − ε) leaves it to the arrival check. The query
// tokens are in no set, so there are no self matches.
struct PrunableAfterLastTouch {
  PrunableAfterLastTouch() {
    sim.Set(0, 10, 0.95);
    sim.Set(0, 11, 0.9);
    sim.Set(1, 12, 0.9);
    sim.Set(2, 13, 0.9);
    sim.Set(1, 14, 0.75);
    sets.AddSet(std::vector<TokenId>{10});
    sets.AddSet(std::vector<TokenId>{11, 12, 13});
    sets.AddSet(std::vector<TokenId>{14, 15, 16});
    index = std::make_unique<sim::ExactKnnIndex>(
        std::vector<TokenId>{10, 11, 12, 13, 14, 15, 16}, &sim);
  }

  testing::TableSimilarity sim;
  index::SetCollection sets;
  std::unique_ptr<sim::ExactKnnIndex> index;
  const std::vector<TokenId> query = {0, 1, 2};
};

TEST(RefinementTest, SetPrunableAfterItsLastTouchIsPruned) {
  PrunableAfterLastTouch c;
  for (const bool feedback : {false, true}) {
    SearchParams lazy;
    lazy.k = 1;
    lazy.alpha = 0.7;
    lazy.use_stream_feedback = feedback;
    SearchParams naive = lazy;
    naive.use_bucket_index = false;
    SearchStats sa, sb;
    const auto a = RefineOnce(c.sets, *c.index, c.query, lazy, &sa);
    const auto b = RefineOnce(c.sets, *c.index, c.query, naive, &sb);
    const std::string label = feedback ? "feedback" : "drain";
    ExpectSameRefinement(a, sa, b, sb, label);
    // The final sweep (drain) or the stop check's scan (feedback) prunes
    // set 0; with feedback the stream stops before set 2 arrives.
    ASSERT_EQ(a.survivors.size(), 1u) << label;
    EXPECT_EQ(a.survivors[0].set, 1u) << label;
    EXPECT_EQ(sa.candidates, feedback ? 2u : 3u) << label;
    EXPECT_EQ(sa.iub_filtered, feedback ? 1u : 2u) << label;
  }
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
