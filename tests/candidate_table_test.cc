#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "koios/core/candidate_table.h"
#include "koios/matching/semantic_overlap.h"
#include "test_util.h"

namespace koios::core {
namespace {

// A table holding one candidate (set 0, |C| = set_size) for a query of
// `query_size` elements; tokens sit at posting index 0.
struct OneCandidate {
  OneCandidate(uint32_t set_size, uint32_t query_size) {
    table.Reset(/*num_sets=*/1, query_size);
    slot = table.Add(0, table.Capacity(set_size));
  }
  size_t Bit(TokenId token) { return table.TokenBits(token, 1); }
  bool EdgeValid(uint32_t q, TokenId t) {
    return table.EdgeValid(slot, q, Bit(t));
  }
  void AddMatch(uint32_t q, TokenId t, Score s) {
    table.AddMatch(slot, q, Bit(t), s);
  }
  const CandidateState& state() const { return table[slot]; }

  CandidateTable table;
  uint32_t slot = 0;
};

TEST(CandidateStateTest, GreedyBookkeeping) {
  OneCandidate c(/*set_size=*/5, /*query_size=*/3);
  EXPECT_EQ(c.state().matched, 0u);
  EXPECT_TRUE(c.EdgeValid(0, 100));
  c.AddMatch(0, 100, 0.9);
  EXPECT_FALSE(c.EdgeValid(0, 200));  // query pos matched
  EXPECT_FALSE(c.EdgeValid(1, 100));  // token matched
  EXPECT_TRUE(c.EdgeValid(1, 200));
  EXPECT_DOUBLE_EQ(c.state().partial, 0.9);
}

TEST(CandidateStateTest, CapacityLimitsGreedyMatching) {
  OneCandidate c(/*set_size=*/2, /*query_size=*/10);
  c.AddMatch(0, 100, 1.0);
  c.AddMatch(1, 101, 1.0);
  EXPECT_FALSE(c.EdgeValid(2, 102));  // capacity = min(2, 10) reached
}

TEST(CandidateStateTest, RowBoundTracksFirstEdgePerRow) {
  OneCandidate c(/*set_size=*/4, /*query_size=*/3);
  EXPECT_TRUE(c.table.AddRow(c.slot, 1, 0.95));
  EXPECT_FALSE(c.table.AddRow(c.slot, 1, 0.90));  // row already retained
  EXPECT_TRUE(c.table.AddRow(c.slot, 0, 0.85));
  EXPECT_DOUBLE_EQ(c.state().row_sum, 1.80);
  EXPECT_EQ(c.state().rows, 2u);
  EXPECT_EQ(c.state().remaining(), 1u);
  // UB at s = 0.8: 1.80 + 1 * 0.8.
  EXPECT_NEAR(c.state().UpperBound(0.8), 2.6, 1e-12);
}

TEST(CandidateStateTest, RowRetentionStopsAtCapacity) {
  OneCandidate c(/*set_size=*/2, /*query_size=*/5);
  EXPECT_TRUE(c.table.AddRow(c.slot, 0, 1.0));
  EXPECT_TRUE(c.table.AddRow(c.slot, 1, 0.9));
  EXPECT_FALSE(c.table.AddRow(c.slot, 2, 0.8));  // capacity min(2, 5) = 2
  EXPECT_DOUBLE_EQ(c.state().UpperBound(0.8), 1.9);
  EXPECT_EQ(c.state().remaining(), 0u);
}

TEST(CandidateStateTest, IubPaperBoundCounterexample) {
  // The paper's Lemma 6 bound S_i + m_i*s fails on this instance; the
  // row-based bound stays sound (see CandidateState). Weights:
  //   (q0,t0)=1.0, (q0,t1)=0.99, (q1,t0)=0.99, (q1,t1)=0.85; SO = 1.98.
  testing::TableSimilarity sim;
  sim.Set(0, 10, 1.0);
  sim.Set(0, 11, 0.99);
  sim.Set(1, 10, 0.99);
  sim.Set(1, 11, 0.85);
  const std::vector<TokenId> q = {0, 1}, c = {10, 11};
  const Score so = matching::SemanticOverlap(q, c, sim, 0.5);
  ASSERT_NEAR(so, 1.98, 1e-12);

  // Simulate the stream: (q0,t0,1.0), (q0,t1,.99), (q1,t0,.99), (q1,t1,.85).
  OneCandidate state(2, 2);
  // Greedy (lower bound) path:
  ASSERT_TRUE(state.EdgeValid(0, 10));
  state.AddMatch(0, 10, 1.0);
  EXPECT_FALSE(state.EdgeValid(0, 11));  // q0 matched
  EXPECT_FALSE(state.EdgeValid(1, 10));  // t0 matched
  ASSERT_TRUE(state.EdgeValid(1, 11));
  state.AddMatch(1, 11, 0.85);
  EXPECT_NEAR(state.state().partial, 1.85, 1e-12);
  // Paper's bound after the stream passes 0.85: S_i + m*s = 1.85 + 0 < SO!
  EXPECT_LT(state.state().partial, so);

  // Row-based bound path (what Koios uses):
  OneCandidate rows(2, 2);
  rows.table.AddRow(rows.slot, 0, 1.0);   // first q0 edge
  rows.table.AddRow(rows.slot, 1, 0.99);  // first q1 edge
  EXPECT_GE(rows.state().UpperBound(0.85) + 1e-12, so);  // 1.99 >= 1.98
  EXPECT_GE(state.state().partial, so / 2.0);  // greedy LB guarantee holds
}

TEST(CandidateStateTest, UpperBoundSoundOnRandomInstances) {
  // Property: replaying any descending edge stream, the row bound always
  // dominates the exact SO at every prefix similarity, and the greedy
  // partial score stays within [SO / 2, SO].
  util::Rng rng(99);
  CandidateTable table;  // reused across trials, as refinement does
  for (int trial = 0; trial < 100; ++trial) {
    const size_t nq = 1 + rng.NextBounded(5), nc = 1 + rng.NextBounded(5);
    testing::TableSimilarity sim;
    struct Edge {
      uint32_t q;
      TokenId t;
      Score s;
    };
    std::vector<Edge> edges;
    for (uint32_t qi = 0; qi < nq; ++qi) {
      for (uint32_t cj = 0; cj < nc; ++cj) {
        if (rng.NextBool(0.7)) {
          const Score s = 0.5 + 0.5 * rng.NextDouble();
          sim.Set(qi, 100 + cj, s);
          edges.push_back({qi, 100 + cj, s});
        }
      }
    }
    std::vector<TokenId> q(nq), c(nc);
    for (uint32_t i = 0; i < nq; ++i) q[i] = i;
    for (uint32_t j = 0; j < nc; ++j) c[j] = 100 + j;
    const Score so = matching::SemanticOverlap(q, c, sim, 0.5);

    std::sort(edges.begin(), edges.end(),
              [](const Edge& a, const Edge& b) { return a.s > b.s; });
    table.Reset(/*num_sets=*/1, nq);
    const uint32_t slot = table.Add(0, table.Capacity(nc));
    for (const Edge& e : edges) {
      table.AddRow(slot, e.q, e.s);
      const size_t bit = table.TokenBits(e.t, 1);
      if (table.EdgeValid(slot, e.q, bit)) table.AddMatch(slot, e.q, bit, e.s);
      EXPECT_GE(table[slot].UpperBound(e.s) + 1e-9, so)
          << "unsound UB at trial " << trial;
    }
    EXPECT_LE(table[slot].partial, so + 1e-9) << "trial " << trial;
    EXPECT_GE(table[slot].partial + 1e-9, so / 2.0) << "trial " << trial;
  }
}

TEST(CandidateStateTest, PrunableIsStrictAndUsesTheRemainingRows) {
  CandidateState tie;  // UpperBound(0.5) == 1.5 + 1 * 0.5 == theta: keep
  tie.capacity = 2;
  tie.rows = 1;
  tie.row_sum = 1.5;
  EXPECT_FALSE(tie.Prunable(/*s=*/0.5, /*theta=*/2.0));
  EXPECT_TRUE(tie.Prunable(0.5, 2.0 + 1e-6));
  EXPECT_TRUE(tie.Prunable(0.4, 2.0));  // s fell: the cutoff rose

  CandidateState full = tie, open = tie;  // same row sum, m = 0 and m = 10
  full.rows = full.capacity;
  open.capacity = 11;
  EXPECT_TRUE(full.Prunable(0.5, 2.0));    // 1.5 < 2.0
  EXPECT_FALSE(open.Prunable(0.5, 2.0));   // 1.5 + 10 * 0.5 >= 2.0
}

TEST(CandidateTableTest, SweepPrunesBelowCutoffAndStopsPastLimit) {
  CandidateTable table;
  table.Reset(/*num_sets=*/6, /*query_size=*/2);
  // Capacity 2 and one retained row each: m = 1, row_sum = that row's s.
  const Score row_sums[] = {0.5, 1.5, 0.9, 1.6, 0.2, 1.55};
  for (SetId id = 0; id < 6; ++id) {
    table.AddRow(table.Add(id, table.Capacity(2)), 0, row_sums[id]);
  }
  // At s = 0.5 and theta = 2.0 the cutoff is row_sum < 1.5 - eps; set 1
  // ties with it and survives. With limit 1 the scan returns at its second
  // survivor (set 3), before reaching set 4.
  size_t pruned = 0;
  EXPECT_EQ(table.Sweep(0.5, 2.0, &pruned, /*limit=*/1), 2u);
  EXPECT_EQ(pruned, 2u);
  EXPECT_EQ(table.Lookup(0), CandidateTable::kPruned);
  EXPECT_EQ(table.Lookup(2), CandidateTable::kPruned);
  EXPECT_NE(table.Lookup(4), CandidateTable::kPruned);
  EXPECT_EQ(table.live(), 4u);

  EXPECT_EQ(table.Sweep(0.5, 2.0, &pruned), 3u);
  EXPECT_EQ(pruned, 3u);
  EXPECT_EQ(table.Lookup(4), CandidateTable::kPruned);
  std::vector<uint32_t> live;
  table.ForEachLive(
      [&](uint32_t, const CandidateState& c) { live.push_back(c.rank); });
  std::sort(live.begin(), live.end());
  EXPECT_EQ(live, (std::vector<uint32_t>{1, 3, 5}));
}

TEST(CandidateTableTest, ResetForgetsEveryCandidate) {
  CandidateTable table;
  table.Reset(/*num_sets=*/10, /*query_size=*/4);
  const uint32_t slot = table.Add(3, table.Capacity(7));
  table.MarkPruned(5);
  EXPECT_EQ(table.Lookup(3), slot);
  EXPECT_EQ(table.Lookup(5), CandidateTable::kPruned);
  EXPECT_EQ(table.Lookup(4), CandidateTable::kUnseen);
  EXPECT_EQ(table.live(), 1u);

  table.Reset(/*num_sets=*/20, /*query_size=*/4);  // wider range
  for (SetId id = 0; id < 20; ++id) {
    EXPECT_EQ(table.Lookup(id), CandidateTable::kUnseen) << id;
  }
  EXPECT_EQ(table.live(), 0u);
  table.Reset(/*num_sets=*/5, /*query_size=*/2);  // narrower one
  for (SetId id = 0; id < 5; ++id) {
    EXPECT_EQ(table.Lookup(id), CandidateTable::kUnseen) << id;
  }
}

// A shard's query resets the table over its own sets right after a query
// over the whole collection: the stamps are indexed by size rank, so the
// shard's ranks reuse stamps the earlier query wrote for other sets.
TEST(CandidateTableTest, ResetToAPartitionKeepsOnlyItsStamps) {
  constexpr uint32_t kSets = 40;
  constexpr uint32_t kShard = 10;
  CandidateTable table;
  table.Reset(/*num_sets=*/kSets, /*query_size=*/3);
  for (uint32_t rank = 0; rank < kSets; ++rank) {
    if (rank % 2 == 0) {
      table.Add(rank, table.Capacity(5));
    } else {
      table.MarkPruned(rank);
    }
  }

  table.Reset(/*num_sets=*/kShard, /*query_size=*/3);
  EXPECT_EQ(table.live(), 0u);
  for (uint32_t rank = 0; rank < kShard; ++rank) {
    EXPECT_EQ(table.Lookup(rank), CandidateTable::kUnseen) << rank;
  }
  // One (epoch, slot) stamp of two uint32s per set of the partition, and
  // nothing else before a candidate arrives.
  EXPECT_EQ(table.MemoryUsageBytes(), kShard * 2 * sizeof(uint32_t));

  const uint32_t first = table.Add(0, table.Capacity(4));
  const uint32_t last = table.Add(kShard - 1, table.Capacity(4));
  table.MarkPruned(3);
  EXPECT_EQ(table.Lookup(0), first);
  EXPECT_EQ(table.Lookup(kShard - 1), last);
  EXPECT_EQ(table[last].rank, kShard - 1);
  EXPECT_EQ(table.Lookup(3), CandidateTable::kPruned);
  EXPECT_EQ(table.Lookup(1), CandidateTable::kUnseen);
  std::vector<uint32_t> live;
  table.ForEachLive(
      [&](uint32_t, const CandidateState& c) { live.push_back(c.rank); });
  std::sort(live.begin(), live.end());
  EXPECT_EQ(live, (std::vector<uint32_t>{0, kShard - 1}));
}

TEST(CandidateTableTest, PrunedSlotsAreRecycledClean) {
  CandidateTable table;
  // 130 query elements: three-word bitsets.
  table.Reset(/*num_sets=*/4, /*query_size=*/130);
  const uint32_t a = table.Add(0, table.Capacity(200));
  table.AddRow(a, 129, 0.9);
  const size_t bit = table.TokenBits(42, 2);
  table.AddMatch(a, 129, bit + 0, 0.9);
  table.Prune(a);
  EXPECT_EQ(table.Lookup(0), CandidateTable::kPruned);
  EXPECT_EQ(table.live(), 0u);

  const uint32_t b = table.Add(1, table.Capacity(3));
  EXPECT_EQ(b, a);  // the slot is reused...
  EXPECT_EQ(table[b].rank, 1u);
  EXPECT_EQ(table[b].capacity, 3u);
  EXPECT_EQ(table[b].rows, 0u);
  EXPECT_EQ(table[b].partial, 0.0);
  EXPECT_TRUE(table.AddRow(b, 129, 0.8));  // ...with its row bits cleared
  // Set 1 sits at index 1 of token 42's postings: set 0's match there
  // does not block it.
  EXPECT_TRUE(table.EdgeValid(b, 129, bit + 1));
  size_t visited = 0;
  table.ForEachLive([&](uint32_t slot, const CandidateState& c) {
    EXPECT_EQ(slot, b);
    EXPECT_EQ(c.rank, 1u);
    ++visited;
  });
  EXPECT_EQ(visited, 1u);
}

TEST(CandidateTableTest, TokenBitsAreStablePerTokenAndDisjoint) {
  CandidateTable table;
  table.Reset(/*num_sets=*/1, /*query_size=*/1);
  // Enough tokens to grow the token table several times.
  std::vector<std::pair<size_t, size_t>> ranges;  // [first, first + len)
  for (TokenId t = 0; t < 500; ++t) {
    const size_t len = 1 + (t * 7) % 150;
    const size_t first = table.TokenBits(t * 977, len);
    ranges.push_back({first, first + len});
  }
  for (TokenId t = 0; t < 500; ++t) {
    EXPECT_EQ(table.TokenBits(t * 977, 1 + (t * 7) % 150), ranges[t].first);
  }
  std::sort(ranges.begin(), ranges.end());
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_LE(ranges[i - 1].second, ranges[i].first);
  }
  // A new query starts with fresh, cleared token bits.
  table.Reset(/*num_sets=*/1, /*query_size=*/1);
  const uint32_t slot = table.Add(0, 1);
  EXPECT_TRUE(table.EdgeValid(slot, 0, table.TokenBits(977, 8)));
}

}  // namespace
}  // namespace koios::core
