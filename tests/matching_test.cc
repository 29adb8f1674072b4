#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "koios/matching/greedy.h"
#include "koios/matching/hungarian.h"
#include "koios/matching/semantic_overlap.h"
#include "koios/matching/sparse_matcher.h"
#include "koios/util/rng.h"
#include "test_util.h"

namespace koios::matching {
namespace {

// ------------------------------------------------------- exact matchers --

// Every case holds for both exact matchers: the dense Hungarian reference
// and the sparse matcher the search pipeline runs.
struct ExactMatcher {
  const char* name;
  MatchResult (*solve)(const WeightMatrix& m, double prune_threshold);
};

void PrintTo(const ExactMatcher& matcher, std::ostream* os) {
  *os << matcher.name;
}

MatchResult SolveDense(const WeightMatrix& m, double prune_threshold) {
  return HungarianMatcher::Solve(m, prune_threshold);
}

MatchResult SolveSparse(const WeightMatrix& m, double prune_threshold) {
  SparseMatcher matcher;
  return matcher.Solve(m, prune_threshold);
}

class ExactMatcherTest : public ::testing::TestWithParam<ExactMatcher> {
 protected:
  MatchResult Solve(const WeightMatrix& m, double prune_threshold = -1.0) {
    return GetParam().solve(m, prune_threshold);
  }
};

TEST_P(ExactMatcherTest, EmptyMatrixIsNeverPruned) {
  for (const auto& [rows, cols] :
       {std::pair<size_t, size_t>{0, 0}, {0, 3}, {3, 0}}) {
    const MatchResult r = Solve(WeightMatrix(rows, cols), 1.0);
    EXPECT_DOUBLE_EQ(r.score, 0.0);
    EXPECT_FALSE(r.early_terminated);
    EXPECT_EQ(r.match_of_row, std::vector<int32_t>(rows, -1));
  }
}

TEST_P(ExactMatcherTest, SingleEdge) {
  WeightMatrix m(1, 1);
  m.At(0, 0) = 0.7;
  const MatchResult r = Solve(m);
  EXPECT_DOUBLE_EQ(r.score, 0.7);
  ASSERT_EQ(r.match_of_row.size(), 1u);
  EXPECT_EQ(r.match_of_row[0], 0);
}

TEST_P(ExactMatcherTest, PicksCrossAssignmentOverGreedy) {
  // Greedy takes (0,0)=1.0 then 0; optimum is (0,1)+(1,0) = 1.8.
  WeightMatrix m(2, 2);
  m.At(0, 0) = 1.0;
  m.At(0, 1) = 0.9;
  m.At(1, 0) = 0.9;
  m.At(1, 1) = 0.0;
  const MatchResult r = Solve(m);
  EXPECT_NEAR(r.score, 1.8, 1e-12);
  EXPECT_EQ(r.match_of_row[0], 1);
  EXPECT_EQ(r.match_of_row[1], 0);
  // Greedy confirms the example's suboptimality.
  EXPECT_NEAR(GreedyMatch(m).score, 1.0, 1e-12);
}

TEST_P(ExactMatcherTest, LaterRowTakesAnEarlierRowsOnlyColumn) {
  // Row 0 can only use column 0, which is worth more to row 1: row 0
  // ends unmatched.
  WeightMatrix m(2, 2);
  m.At(0, 0) = 0.5;
  m.At(1, 0) = 0.9;
  const MatchResult r = Solve(m);
  EXPECT_NEAR(r.score, 0.9, 1e-12);
  EXPECT_EQ(r.match_of_row, (std::vector<int32_t>{-1, 0}));
}

TEST_P(ExactMatcherTest, RectangularMoreRows) {
  WeightMatrix m(3, 2);
  m.At(0, 0) = 0.5;
  m.At(1, 0) = 0.9;
  m.At(2, 1) = 0.8;
  const MatchResult r = Solve(m);
  EXPECT_NEAR(r.score, 1.7, 1e-12);
  EXPECT_EQ(r.match_of_row, (std::vector<int32_t>{-1, 0, 1}));
}

TEST_P(ExactMatcherTest, RectangularMoreCols) {
  WeightMatrix m(2, 4);
  m.At(0, 3) = 0.6;
  m.At(1, 3) = 0.9;
  m.At(1, 2) = 0.5;
  const MatchResult r = Solve(m);
  EXPECT_NEAR(r.score, 1.1, 1e-12);
}

TEST_P(ExactMatcherTest, OptionalMatchingSkipsZeroEdges) {
  // A perfect matching would force a zero edge; score must not require it.
  WeightMatrix m(2, 2);
  m.At(0, 0) = 0.9;  // (1,1) has weight 0
  const MatchResult r = Solve(m);
  EXPECT_NEAR(r.score, 0.9, 1e-12);
  EXPECT_EQ(r.match_of_row[1], -1);
}

TEST_P(ExactMatcherTest, LabelSumUpperBoundsScore) {
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + rng.NextBounded(6);
    WeightMatrix m(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        m.At(i, j) = rng.NextBool(0.5) ? rng.NextDouble() : 0.0;
      }
    }
    const MatchResult r = Solve(m);
    EXPECT_GE(r.label_sum + 1e-9, r.score);
  }
}

TEST_P(ExactMatcherTest, EarlyTerminationFiresWhenOptimumBelowThreshold) {
  WeightMatrix m(2, 2);
  m.At(0, 0) = 0.3;
  m.At(1, 1) = 0.3;
  const MatchResult r = Solve(m, /*prune_threshold=*/5.0);
  EXPECT_TRUE(r.early_terminated);
}

TEST_P(ExactMatcherTest, EarlyTerminationDoesNotFireWhenOptimumAbove) {
  WeightMatrix m(2, 2);
  m.At(0, 0) = 0.9;
  m.At(1, 1) = 0.9;
  const MatchResult r = Solve(m, /*prune_threshold=*/1.0);
  EXPECT_FALSE(r.early_terminated);
  EXPECT_NEAR(r.score, 1.8, 1e-12);
}

TEST_P(ExactMatcherTest, EarlyTerminationKeepsTies) {
  // SO == θ is never pruned (kTerminationMargin); just above it is.
  WeightMatrix m(2, 2);
  m.At(0, 0) = 0.9;
  m.At(1, 1) = 0.9;
  EXPECT_FALSE(Solve(m, /*prune_threshold=*/1.8).early_terminated);
  EXPECT_TRUE(Solve(m, /*prune_threshold=*/1.8 + 1e-6).early_terminated);
}

TEST_P(ExactMatcherTest, EarlyTerminationNeverFalselyPrunes) {
  // Property: if ET fires with threshold t, the true optimum is < t.
  util::Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t rows = 1 + rng.NextBounded(5);
    const size_t cols = 1 + rng.NextBounded(5);
    WeightMatrix m(rows, cols);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        m.At(i, j) = rng.NextBool(0.6) ? 0.5 + 0.5 * rng.NextDouble() : 0.0;
      }
    }
    const double exact = Solve(m).score;
    const double threshold = rng.NextDouble() * 3.0;
    const MatchResult pruned = Solve(m, threshold);
    if (pruned.early_terminated) {
      EXPECT_LT(exact, threshold + 1e-9)
          << "false prune at trial " << trial;
    } else {
      EXPECT_NEAR(pruned.score, exact, 1e-9);
    }
  }
}

// Brute-force optimal optional matching: tries every injective partial
// assignment of the smaller side into the larger one (sides <= 6).
double BruteForceMatching(const WeightMatrix& m) {
  const bool transposed = m.rows() > m.cols();
  const size_t small = transposed ? m.cols() : m.rows();
  const size_t large = transposed ? m.rows() : m.cols();
  std::vector<char> used(large, 0);
  std::function<double(size_t)> best_from = [&](size_t s) -> double {
    if (s == small) return 0.0;
    double best = best_from(s + 1);  // s stays unmatched
    for (size_t l = 0; l < large; ++l) {
      if (used[l]) continue;
      used[l] = 1;
      const double w = transposed ? m.At(l, s) : m.At(s, l);
      best = std::max(best, w + best_from(s + 1));
      used[l] = 0;
    }
    return best;
  };
  return best_from(0);
}

TEST(BruteForceOracleTest, MatchesRowsAfterThePrefix) {
  // The optimum uses rows 2 and 3, both past the first min(rows, cols).
  WeightMatrix m(4, 2);
  m.At(0, 0) = 0.1;
  m.At(2, 0) = 0.9;
  m.At(3, 1) = 0.8;
  EXPECT_NEAR(BruteForceMatching(m), 1.7, 1e-12);
}

TEST_P(ExactMatcherTest, MatchesOracleOnEveryShapeUpTo6x6) {
  util::Rng rng(23);
  for (size_t rows = 0; rows <= 6; ++rows) {
    for (size_t cols = 0; cols <= 6; ++cols) {
      for (int trial = 0; trial < 8; ++trial) {
        const double density = 0.2 + 0.1 * trial;
        WeightMatrix m(rows, cols);
        for (size_t i = 0; i < rows; ++i) {
          for (size_t j = 0; j < cols; ++j) {
            m.At(i, j) = rng.NextBool(density) ? rng.NextDouble() : 0.0;
          }
        }
        EXPECT_NEAR(Solve(m).score, BruteForceMatching(m), 1e-9)
            << rows << "x" << cols << " trial " << trial;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Solvers, ExactMatcherTest,
    ::testing::Values(ExactMatcher{"dense", &SolveDense},
                      ExactMatcher{"sparse", &SolveSparse}),
    [](const ::testing::TestParamInfo<ExactMatcher>& info) {
      return std::string(info.param.name);
    });

TEST(SparseMatcherTest, WorkspaceReuseAcrossShapes) {
  // One matcher solving a run of different shapes answers as fresh ones
  // do, and counts its solves (empty matrices are not solved).
  util::Rng rng(31);
  SparseMatcher reused;
  size_t solved = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const size_t rows = rng.NextBounded(12);
    const size_t cols = rng.NextBounded(12);
    WeightMatrix m(rows, cols);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        if (rng.NextBool(0.3)) m.At(i, j) = rng.NextDouble();
      }
    }
    const double threshold = rng.NextBool(0.3) ? rng.NextDouble() : -1.0;
    SparseMatcher fresh;
    const MatchResult want = fresh.Solve(m, threshold);
    const MatchResult got = reused.Solve(m, threshold);
    EXPECT_EQ(got.early_terminated, want.early_terminated) << trial;
    EXPECT_EQ(got.score, want.score) << "trial " << trial;
    EXPECT_EQ(got.match_of_row, want.match_of_row) << "trial " << trial;
    if (rows > 0 && cols > 0) ++solved;
  }
  EXPECT_EQ(reused.solve_count(), solved);
}

// ---------------------------------------------------------------- Greedy --

TEST(GreedyTest, EmptyEdges) {
  EXPECT_DOUBLE_EQ(GreedyMatchEdges({}).score, 0.0);
}

TEST(GreedyTest, RespectsOneToOne) {
  std::vector<WeightedEdge> edges = {
      {0, 0, 0.9}, {0, 1, 0.8}, {1, 0, 0.7}, {1, 1, 0.1}};
  const GreedyResult r = GreedyMatchEdges(edges);
  EXPECT_NEAR(r.score, 1.0, 1e-12);  // 0.9 + 0.1
  ASSERT_EQ(r.pairs.size(), 2u);
  EXPECT_EQ(r.pairs[0], (std::pair<uint32_t, uint32_t>{0, 0}));
}

TEST(GreedyTest, IgnoresNonPositiveWeights) {
  std::vector<WeightedEdge> edges = {{0, 0, 0.0}, {1, 1, -1.0}, {2, 2, 0.4}};
  const GreedyResult r = GreedyMatchEdges(edges);
  EXPECT_NEAR(r.score, 0.4, 1e-12);
  EXPECT_EQ(r.pairs.size(), 1u);
}

TEST(GreedyTest, WithinFactorTwoOfOptimal) {
  // Lemma 3: greedy >= SO / 2; also greedy <= SO.
  util::Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t rows = 1 + rng.NextBounded(6);
    const size_t cols = 1 + rng.NextBounded(6);
    WeightMatrix m(rows, cols);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        m.At(i, j) = rng.NextBool(0.5) ? rng.NextDouble() : 0.0;
      }
    }
    const double optimal = HungarianMatcher::Solve(m).score;
    const double greedy = GreedyMatch(m).score;
    EXPECT_LE(greedy, optimal + 1e-9);
    EXPECT_GE(greedy, optimal / 2.0 - 1e-9);
  }
}

// ------------------------------------------------------- SemanticOverlap --

TEST(SemanticOverlapTest, VanillaOverlapIsLowerBound) {
  // Lemma 1: |Q ∩ C| <= SO(Q, C) for any α <= 1.
  testing::TableSimilarity sim;
  sim.Set(0, 10, 0.9);
  const std::vector<TokenId> q = {0, 1, 2};
  const std::vector<TokenId> c = {1, 2, 10};
  const Score so = SemanticOverlap(q, c, sim, 0.8);
  EXPECT_GE(so, 2.0 - 1e-12);        // overlap {1, 2}
  EXPECT_NEAR(so, 2.9, 1e-12);       // plus edge (0, 10)
}

TEST(SemanticOverlapTest, AlphaClampsWeakEdges) {
  testing::TableSimilarity sim;
  sim.Set(0, 10, 0.75);
  const std::vector<TokenId> q = {0};
  const std::vector<TokenId> c = {10};
  EXPECT_NEAR(SemanticOverlap(q, c, sim, 0.7), 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(SemanticOverlap(q, c, sim, 0.8), 0.0);
}

TEST(SemanticOverlapTest, SymmetricMeasure) {
  testing::TableSimilarity sim;
  sim.Set(0, 10, 0.9);
  sim.Set(1, 11, 0.8);
  sim.Set(0, 11, 0.85);
  const std::vector<TokenId> q = {0, 1, 2};
  const std::vector<TokenId> c = {10, 11, 2};
  EXPECT_NEAR(SemanticOverlap(q, c, sim, 0.7),
              SemanticOverlap(c, q, sim, 0.7), 1e-12);
}

TEST(SemanticOverlapTest, GraphRestrictionKeepsOnlyIncidentNodes) {
  testing::TableSimilarity sim;
  sim.Set(0, 10, 0.9);
  const std::vector<TokenId> q = {0, 1, 2, 3, 4};
  const std::vector<TokenId> c = {10, 20, 21, 22};
  const BipartiteGraph g = BuildGraph(q, c, sim, 0.8);
  EXPECT_EQ(g.query_rows.size(), 1u);
  EXPECT_EQ(g.set_cols.size(), 1u);
  EXPECT_EQ(g.edges, 1u);
}

TEST(SemanticOverlapTest, BoundedByMinCardinality) {
  testing::TableSimilarity sim;
  for (TokenId a = 0; a < 3; ++a) {
    for (TokenId b = 10; b < 16; ++b) sim.Set(a, b, 0.95);
  }
  const std::vector<TokenId> q = {0, 1, 2};
  const std::vector<TokenId> c = {10, 11, 12, 13, 14, 15};
  const Score so = SemanticOverlap(q, c, sim, 0.8);
  EXPECT_LE(so, 3.0 + 1e-12);
  EXPECT_NEAR(so, 3 * 0.95, 1e-12);
}

}  // namespace
}  // namespace koios::matching
