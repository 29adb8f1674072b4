#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "koios/core/searcher.h"
#include "test_util.h"

namespace koios::core {
namespace {

std::vector<TokenId> QueryOf(const testing::RandomWorkload& w, SetId id) {
  const auto span = w.corpus.sets.Tokens(id);
  return {span.begin(), span.end()};
}

TEST(SearcherTest, ResultsAreSortedDescending) {
  auto w = testing::MakeRandomWorkload(100, 500, 5, 20, 701);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  SearchParams params;
  params.k = 10;
  const auto result = searcher.Search(QueryOf(w, 0), params);
  for (size_t i = 1; i < result.topk.size(); ++i) {
    EXPECT_GE(result.topk[i - 1].score, result.topk[i].score - 1e-12);
  }
}

TEST(SearcherTest, RepeatedSearchesAreDeterministic) {
  auto w = testing::MakeRandomWorkload(100, 500, 5, 20, 702);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  SearchParams params;
  params.k = 7;
  const auto query = QueryOf(w, 14);
  const auto r1 = searcher.Search(query, params);
  const auto r2 = searcher.Search(query, params);
  ASSERT_EQ(r1.topk.size(), r2.topk.size());
  for (size_t i = 0; i < r1.topk.size(); ++i) {
    EXPECT_EQ(r1.topk[i].set, r2.topk[i].set);
    EXPECT_DOUBLE_EQ(r1.topk[i].score, r2.topk[i].score);
  }
}

TEST(SearcherTest, VocabularyPredicateSpansPartitions) {
  auto w = testing::MakeRandomWorkload(60, 300, 5, 15, 703);
  SearcherOptions options;
  options.num_partitions = 4;
  KoiosSearcher searcher(&w.corpus.sets, w.index.get(), options);
  for (TokenId t : w.corpus.vocabulary) {
    EXPECT_TRUE(searcher.InVocabulary(t));
  }
  EXPECT_FALSE(searcher.InVocabulary(static_cast<TokenId>(5'000'000)));
}

TEST(SearcherTest, StatsTimersPopulated) {
  auto w = testing::MakeRandomWorkload(80, 400, 5, 20, 704);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  SearchParams params;
  const auto result = searcher.Search(QueryOf(w, 4), params);
  EXPECT_GT(result.stats.timers.Get("refinement"), 0.0);
  EXPECT_GE(result.stats.timers.Get("postprocess"), 0.0);
  EXPECT_GT(result.stats.memory.TotalBytes(), 0u);
  EXPECT_GT(result.stats.stream_tuples, 0u);
}

TEST(SearcherTest, KLargerThanRepositoryIsSafe) {
  auto w = testing::MakeRandomWorkload(20, 150, 4, 10, 705);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  SearchParams params;
  params.k = 500;
  const auto result = searcher.Search(QueryOf(w, 2), params);
  EXPECT_LE(result.topk.size(), 20u);
  // All returned entries must be distinct sets.
  std::set<SetId> distinct;
  for (const auto& e : result.topk) distinct.insert(e.set);
  EXPECT_EQ(distinct.size(), result.topk.size());
}

TEST(SearcherTest, AlphaOneKeepsOnlyIdenticalElements) {
  // With alpha = 1.0, semantic overlap degenerates to vanilla overlap.
  auto w = testing::MakeRandomWorkload(80, 300, 6, 15, 706);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  SearchParams params;
  params.k = 5;
  params.alpha = 1.0;
  const auto query = QueryOf(w, 9);
  std::vector<TokenId> sorted_query = query;
  std::sort(sorted_query.begin(), sorted_query.end());
  const auto result = searcher.Search(query, params);
  for (const auto& entry : result.topk) {
    // Identical embeddings in a zero-noise cluster could reach cosine 1.0,
    // but the oracle must agree with the reported score either way.
    const Score so = matching::SemanticOverlap(
        query, w.corpus.sets.Tokens(entry.set), *w.sim, 1.0);
    EXPECT_NEAR(entry.score, so, 1e-6);
    EXPECT_GE(so + 1e-9,
              static_cast<Score>(
                  w.corpus.sets.VanillaOverlap(sorted_query, entry.set)));
  }
}

TEST(SearcherTest, PartitionSeedChangesAssignmentNotResult) {
  auto w = testing::MakeRandomWorkload(90, 400, 5, 18, 708);
  SearcherOptions o1, o2;
  o1.num_partitions = o2.num_partitions = 5;
  o1.partition_seed = 1;
  o2.partition_seed = 999;
  KoiosSearcher s1(&w.corpus.sets, w.index.get(), o1);
  KoiosSearcher s2(&w.corpus.sets, w.index.get(), o2);
  SearchParams params;
  params.k = 6;
  const auto query = QueryOf(w, 22);
  const auto r1 = s1.Search(query, params);
  const auto r2 = s2.Search(query, params);
  ASSERT_EQ(r1.topk.size(), r2.topk.size());
  EXPECT_NEAR(r1.KthScore(), r2.KthScore(), 1e-6);
}

// Refinement's work counters on a fixed corpus and query set. They are
// deterministic, and a change to the refinement data structures must not
// move them: the candidate table and the lazy iUB filter prune exactly the
// sets the paper's per-tuple bucket sweep prunes. The posting walk stops
// each list at the size cut (min(|Q|, |C|) < θlb − ε), so the sets past it
// are never candidates and the postings past it are never visited.
struct RefinementCounters {
  size_t candidates = 0;
  size_t iub_filtered = 0;
  size_t bucket_moves = 0;
  size_t stream_tuples = 0;
  size_t postprocess_sets = 0;
  size_t postings_visited = 0;
};

void Accumulate(const SearchStats& stats, RefinementCounters* c) {
  c->candidates += stats.candidates;
  c->iub_filtered += stats.iub_filtered;
  c->bucket_moves += stats.bucket_moves;
  c->stream_tuples += stats.stream_tuples;
  c->postprocess_sets += stats.postprocess_sets;
  c->postings_visited += stats.postings_visited;
}

void ExpectCounters(const RefinementCounters& got,
                    const RefinementCounters& want, const char* label) {
  EXPECT_EQ(got.candidates, want.candidates) << label;
  EXPECT_EQ(got.iub_filtered, want.iub_filtered) << label;
  EXPECT_EQ(got.bucket_moves, want.bucket_moves) << label;
  EXPECT_EQ(got.stream_tuples, want.stream_tuples) << label;
  EXPECT_EQ(got.postprocess_sets, want.postprocess_sets) << label;
  EXPECT_EQ(got.postings_visited, want.postings_visited) << label;
}

// Exact matching's decisions on the same queries: which survivors the
// No-EM filter admits, which matchings run to the end or terminate early,
// and the returned (set, score) pairs hashed bit for bit. A change to the
// matcher must not move them: it has to reach the same early-termination
// decisions and the same score bits as the dense Hungarian reference.
struct VerificationCounters {
  size_t no_em_skipped = 0;
  size_t em_computed = 0;
  size_t em_early_terminated = 0;
  size_t result_verification_ems = 0;
  uint64_t result_checksum = 14695981039346656037ull;  // FNV-1a basis
};

void Accumulate(const SearchStats& stats,
                std::span<const ResultEntry> results,
                VerificationCounters* v) {
  v->no_em_skipped += stats.no_em_skipped;
  v->em_computed += stats.em_computed;
  v->em_early_terminated += stats.em_early_terminated;
  v->result_verification_ems += stats.result_verification_ems;
  auto mix = [v](uint64_t x) {
    v->result_checksum = (v->result_checksum ^ x) * 1099511628211ull;
  };
  for (const ResultEntry& e : results) {
    uint64_t bits = 0;
    std::memcpy(&bits, &e.score, sizeof bits);
    mix(e.set);
    mix(bits);
  }
}

void ExpectVerification(const VerificationCounters& got,
                        const VerificationCounters& want, const char* label) {
  EXPECT_EQ(got.no_em_skipped, want.no_em_skipped) << label;
  EXPECT_EQ(got.em_computed, want.em_computed) << label;
  EXPECT_EQ(got.em_early_terminated, want.em_early_terminated) << label;
  EXPECT_EQ(got.result_verification_ems, want.result_verification_ems)
      << label;
  EXPECT_EQ(got.result_checksum, want.result_checksum) << label;
}

// What the token stream produced: the tuples the edge cache ordered and
// kept, and the stop similarity each query's cache was sealed at, summed
// bit pattern by bit pattern.
struct ProductionCounters {
  size_t tuples_produced = 0;
  uint64_t stop_sim_bits = 0;
};

void Accumulate(const SearchStats& stats, ProductionCounters* p) {
  p->tuples_produced += stats.stream_tuples_produced;
  uint64_t bits = 0;
  std::memcpy(&bits, &stats.stream_stop_sim, sizeof bits);
  p->stop_sim_bits += bits;
}

void ExpectProduction(const ProductionCounters& got,
                      const ProductionCounters& want, const char* label) {
  EXPECT_EQ(got.tuples_produced, want.tuples_produced) << label;
  EXPECT_EQ(got.stop_sim_bits, want.stop_sim_bits) << label;
}

std::vector<std::vector<TokenId>> PinnedQueries(
    const testing::RandomWorkload& w) {
  std::vector<std::vector<TokenId>> queries;
  for (SetId id = 0; id < w.corpus.sets.size(); id += 25) {
    queries.push_back(QueryOf(w, id));
  }
  return queries;
}

TEST(SearcherTest, RefinementCountersArePinned) {
  auto w = testing::MakeRandomWorkload(400, 1500, 4, 40, 709);
  const auto queries = PinnedQueries(w);
  KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  for (const bool bucketed : {true, false}) {
    RefinementCounters got;
    ProductionCounters produced;
    VerificationCounters verified_k1, verified_k10;
    // k = 1 stops the stream early through the feedback loop's survivor
    // count; k = 10 drains it to α.
    for (const size_t k : {1, 10}) {
      SearchParams params;
      params.k = k;
      params.alpha = 0.75;
      params.use_bucket_index = bucketed;
      for (const auto& query : queries) {
        const SearchResult r = searcher.Search(query, params);
        Accumulate(r.stats, &got);
        Accumulate(r.stats, &produced);
        Accumulate(r.stats, r.topk, k == 1 ? &verified_k1 : &verified_k10);
      }
    }
    // The naive per-candidate iUB scan prunes the same sets in the same
    // tuples, and moves no buckets.
    const char* label = bucketed ? "bucket index" : "naive iUB";
    const RefinementCounters want = {
        /*candidates=*/11123, /*iub_filtered=*/10452,
        /*bucket_moves=*/bucketed ? 54615u : 0u, /*stream_tuples=*/3186,
        /*postprocess_sets=*/671, /*postings_visited=*/78028};
    ExpectCounters(got, want, label);
    // Production is pulled 16 tuples at a time and sealed where the
    // consumer stopped, the same either way.
    ExpectProduction(produced, {3312, 18362494020889021249ull}, label);
    // Post-processing sees the same survivors either way.
    ExpectVerification(verified_k1, {16, 0, 0, 16, 4914962997095115013ull},
                       label);
    ExpectVerification(verified_k10,
                       {94, 67, 494, 94, 2718616746841741523ull}, label);
  }
}

// The same queries over 4 random partitions, searched one after another
// through one edge cache under the shared θlb (§VI): later partitions
// replay the prefix earlier ones produced and pull further production
// only past it.
TEST(SearcherTest, PartitionedCountersArePinned) {
  auto w = testing::MakeRandomWorkload(400, 1500, 4, 40, 709);
  const auto queries = PinnedQueries(w);
  SearcherOptions options;
  options.num_partitions = 4;
  KoiosSearcher searcher(&w.corpus.sets, w.index.get(), options);
  RefinementCounters got;
  ProductionCounters produced;
  VerificationCounters verified_k1, verified_k10;
  for (const size_t k : {1, 10}) {
    SearchParams params;
    params.k = k;
    params.alpha = 0.75;
    for (const auto& query : queries) {
      const SearchResult r = searcher.Search(query, params);
      Accumulate(r.stats, &got);
      Accumulate(r.stats, &produced);
      Accumulate(r.stats, r.topk, k == 1 ? &verified_k1 : &verified_k10);
    }
  }
  ExpectCounters(got, {9549, 8114, 57903, 15717, 1435, 88909}, "4 partitions");
  ExpectProduction(produced, {4817, 4584800343389235688ull}, "4 partitions");
  // The merged top-k equals the unpartitioned search's bit for bit.
  ExpectVerification(verified_k1, {20, 12, 70, 20, 4914962997095115013ull},
                     "4 partitions k=1");
  ExpectVerification(verified_k10,
                     {389, 208, 734, 390, 2718616746841741523ull},
                     "4 partitions k=10");
}

// One KoiosSearcher serves 4 threads at once. Every token stream opens its
// own probe session over the shared index and refinement scratch is per
// thread, so every answer equals the serial one bit for bit.
TEST(SearcherTest, ConcurrentSearchesOnOneInstanceMatchSerial) {
  auto w = testing::MakeRandomWorkload(400, 1500, 4, 40, 709);
  std::vector<std::vector<TokenId>> queries = PinnedQueries(w);
  queries.resize(12);
  SearchParams params;
  params.k = 10;
  params.alpha = 0.75;
  const KoiosSearcher koios(&w.corpus.sets, w.index.get());

  using Answer = std::vector<ResultEntry>;
  auto answer = [&](const std::vector<TokenId>& q) {
    return koios.Search(q, params).topk;
  };
  auto same = [](const Answer& a, const Answer& b) {
    if (a.size() != b.size()) return false;
    for (size_t j = 0; j < a.size(); ++j) {
      if (a[j].set != b[j].set || a[j].score != b[j].score ||
          a[j].exact != b[j].exact) {
        return false;
      }
    }
    return true;
  };
  std::vector<Answer> serial;
  for (const auto& q : queries) serial.push_back(answer(q));

  constexpr size_t kThreads = 4;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different query, so the threads probe
      // different tokens at any one time as well as the same ones.
      for (size_t i = 0; i < queries.size(); ++i) {
        const size_t qi = (i + 3 * t) % queries.size();
        if (!same(answer(queries[qi]), serial[qi])) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace koios::core
