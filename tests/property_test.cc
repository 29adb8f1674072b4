// Parameterized property sweeps over the foundational data structures:
// randomized differential tests against straightforward oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "koios/matching/greedy.h"
#include "koios/matching/hungarian.h"
#include "koios/matching/sparse_matcher.h"
#include "koios/sim/exact_knn_index.h"
#include "koios/sim/token_stream.h"
#include "koios/util/rng.h"
#include "koios/util/top_k_list.h"
#include "koios/util/zipf.h"
#include "test_util.h"

namespace koios {
namespace {

// ---------------------------------------------------- TopKList vs oracle --

class TopKListPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TopKListPropertyTest, MatchesSortOracleUnderRandomOps) {
  const size_t k = GetParam();
  util::Rng rng(1000 + k);
  util::TopKList<int> list(k);
  std::map<int, double> live;  // id -> score
  for (int step = 0; step < 2000; ++step) {
    const int id = static_cast<int>(rng.NextBounded(200));
    if (rng.NextBool(0.15) && !live.empty()) {
      // Remove a random live id (if it is in the list).
      auto it = live.begin();
      std::advance(it, rng.NextBounded(live.size()));
      list.Remove(it->first);
      live.erase(it);
    } else {
      // Offer: emulate monotone score growth per id (LB semantics).
      double score = rng.NextDouble() * 10.0;
      auto it = live.find(id);
      if (it != live.end()) score = std::max(score, it->second + 0.1);
      // Mirror the structure's own acceptance rule: entries already in the
      // list are always updated; new entries only enter if they beat the
      // bottom of a full list.
      if (list.Offer(id, score)) live[id] = score;
    }
    // Oracle check: the list holds the k largest live scores it accepted.
    if (step % 100 == 99 && list.Full()) {
      std::vector<double> scores;
      for (const auto& [lid, s] : live) {
        if (list.Contains(lid)) scores.push_back(s);
      }
      ASSERT_EQ(scores.size(), std::min(k, live.size()));
      std::sort(scores.begin(), scores.end());
      EXPECT_DOUBLE_EQ(list.Bottom(), scores.front());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, TopKListPropertyTest,
                         ::testing::Values<size_t>(1, 2, 5, 17, 64));

// -------------------------------------------------------- Zipf CDF sweep --

class ZipfPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfPropertyTest, EmpiricalMassMatchesPmf) {
  const double s = GetParam();
  const uint64_t n = 50;
  util::Rng rng(static_cast<uint64_t>(s * 1000) + 3);
  util::ZipfDistribution dist(n, s);
  std::vector<double> counts(n, 0.0);
  const int samples = 60000;
  for (int i = 0; i < samples; ++i) counts[dist.Sample(&rng)] += 1.0;
  // Expected pmf.
  double norm = 0.0;
  for (uint64_t r = 1; r <= n; ++r) norm += std::pow(static_cast<double>(r), -s);
  for (uint64_t r = 1; r <= 5; ++r) {  // check the head, where mass is
    const double expected = std::pow(static_cast<double>(r), -s) / norm;
    const double got = counts[r - 1] / samples;
    EXPECT_NEAR(got, expected, 0.015 + expected * 0.1)
        << "rank " << r << " skew " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfPropertyTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.3, 2.0));

// ---------------------------------------- matching invariants by density --

class MatchingDensityTest : public ::testing::TestWithParam<double> {};

TEST_P(MatchingDensityTest, HungarianDominatesGreedyWithinFactorTwo) {
  const double density = GetParam();
  util::Rng rng(static_cast<uint64_t>(density * 100) + 7);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t rows = 1 + rng.NextBounded(8);
    const size_t cols = 1 + rng.NextBounded(8);
    matching::WeightMatrix m(rows, cols);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        if (rng.NextBool(density)) m.At(i, j) = 0.5 + 0.5 * rng.NextDouble();
      }
    }
    const double exact = matching::HungarianMatcher::Solve(m).score;
    const double greedy = matching::GreedyMatch(m).score;
    EXPECT_LE(greedy, exact + 1e-9);
    EXPECT_GE(greedy + 1e-9, exact / 2.0);
    // Matching is bounded by its smaller side.
    EXPECT_LE(exact, static_cast<double>(std::min(rows, cols)) + 1e-9);
  }
}

TEST_P(MatchingDensityTest, MatchingIsAValidAssignment) {
  const double density = GetParam();
  util::Rng rng(static_cast<uint64_t>(density * 100) + 11);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t rows = 1 + rng.NextBounded(6);
    const size_t cols = 1 + rng.NextBounded(6);
    matching::WeightMatrix m(rows, cols);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        if (rng.NextBool(density)) m.At(i, j) = rng.NextDouble();
      }
    }
    const auto result = matching::HungarianMatcher::Solve(m);
    std::vector<char> col_used(cols, 0);
    double recomputed = 0.0;
    for (size_t r = 0; r < rows; ++r) {
      const int32_t c = result.match_of_row[r];
      if (c < 0) continue;
      ASSERT_LT(static_cast<size_t>(c), cols);
      EXPECT_FALSE(col_used[c]) << "column matched twice";
      col_used[c] = 1;
      recomputed += m.At(r, static_cast<size_t>(c));
    }
    EXPECT_NEAR(recomputed, result.score, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, MatchingDensityTest,
                         ::testing::Values(0.1, 0.3, 0.6, 0.9, 1.0));

// ---------------------------- sparse matcher vs the dense Hungarian solver --

// A family of random exact-matching graphs: shape range and α-edge density.
struct GraphFamily {
  const char* name;
  size_t min_rows, max_rows, min_cols, max_cols;
  double density;
  int trials;
};

void PrintTo(const GraphFamily& f, std::ostream* os) { *os << f.name; }

// Weights as post-processing sees them: α-clamped similarities in
// [0.7, 1), a few exact 1.0 self-matches (at most one per row and column,
// since a set holds each token once), some empty rows and columns, and
// some isolated rows whose only edge goes to a column no other row has.
matching::WeightMatrix RandomEmGraph(util::Rng& rng, size_t rows, size_t cols,
                                     double density) {
  matching::WeightMatrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      if (rng.NextBool(density)) m.At(i, j) = 0.7 + 0.3 * rng.NextDouble();
    }
  }
  if (cols == 0) return m;
  std::vector<char> col_has_one(cols, 0);
  for (size_t i = 0; i < rows; ++i) {
    const size_t j = rng.NextBounded(cols);
    if (rng.NextBool(0.3) && !col_has_one[j]) {
      m.At(i, j) = 1.0;
      col_has_one[j] = 1;
    }
  }
  for (size_t i = 0; i < rows; ++i) {
    if (!rng.NextBool(0.1)) continue;
    for (size_t j = 0; j < cols; ++j) m.At(i, j) = 0.0;
  }
  for (size_t j = 0; j < cols; ++j) {
    if (!rng.NextBool(0.1)) continue;
    for (size_t i = 0; i < rows; ++i) m.At(i, j) = 0.0;
  }
  for (size_t i = 0; i < rows; ++i) {
    if (!rng.NextBool(0.1)) continue;
    const size_t col = rng.NextBounded(cols);
    for (size_t j = 0; j < cols; ++j) m.At(i, j) = 0.0;
    for (size_t r = 0; r < rows; ++r) m.At(r, col) = 0.0;
    m.At(i, col) = 0.7 + 0.3 * rng.NextDouble();
  }
  return m;
}

// match_of_row is one-to-one over nonzero entries, and its weights summed
// in ascending row order are the score, bit for bit.
void ExpectValidMatching(const matching::WeightMatrix& m,
                         const matching::MatchResult& r) {
  ASSERT_EQ(r.match_of_row.size(), m.rows());
  std::vector<char> col_used(m.cols(), 0);
  double sum = 0.0;
  for (size_t i = 0; i < m.rows(); ++i) {
    const int32_t j = r.match_of_row[i];
    if (j < 0) continue;
    ASSERT_LT(static_cast<size_t>(j), m.cols());
    EXPECT_FALSE(col_used[j]) << "column " << j << " matched twice";
    col_used[j] = 1;
    EXPECT_GT(m.At(i, static_cast<size_t>(j)), 0.0);
    sum += m.At(i, static_cast<size_t>(j));
  }
  EXPECT_EQ(sum, r.score);
}

class SparseMatcherDifferentialTest
    : public ::testing::TestWithParam<GraphFamily> {};

TEST_P(SparseMatcherDifferentialTest, AgreesWithDenseHungarian) {
  const GraphFamily& family = GetParam();
  util::Rng rng(4242 + family.min_rows * 31 + family.max_cols);
  matching::SparseMatcher sparse;  // one workspace across every solve
  for (int trial = 0; trial < family.trials; ++trial) {
    auto between = [&rng](size_t lo, size_t hi) {
      return lo + rng.NextBounded(hi - lo + 1);
    };
    const size_t rows = between(family.min_rows, family.max_rows);
    const size_t cols = between(family.min_cols, family.max_cols);
    const matching::WeightMatrix m =
        RandomEmGraph(rng, rows, cols, family.density);
    SCOPED_TRACE(::testing::Message() << family.name << " trial " << trial
                                      << " (" << rows << "x" << cols << ")");

    const matching::MatchResult dense = matching::HungarianMatcher::Solve(m);
    const matching::MatchResult got = sparse.Solve(m);
    ASSERT_FALSE(got.early_terminated);
    EXPECT_EQ(got.score, dense.score);  // bit-equal
    ExpectValidMatching(m, got);
    EXPECT_GE(got.label_sum + 1e-9, got.score);

    // Early termination: the matchers abort iff SO < θ − margin. Draw θ
    // on both sides of that boundary, 1e-6 to 0.5 away from it.
    const double boundary = dense.score + matching::kTerminationMargin;
    for (int draw = 0; draw < 6; ++draw) {
      const double offset = std::pow(10.0, -6.0 + 5.7 * rng.NextDouble());
      const bool above = rng.NextBool(0.5);
      const double theta = above ? boundary + offset : boundary - offset;
      if (theta < 0.0) continue;
      const matching::MatchResult d =
          matching::HungarianMatcher::Solve(m, theta);
      const matching::MatchResult s = sparse.Solve(m, theta);
      EXPECT_EQ(d.early_terminated, above) << "theta " << theta;
      EXPECT_EQ(s.early_terminated, d.early_terminated) << "theta " << theta;
      if (!s.early_terminated) {
        EXPECT_EQ(s.score, dense.score) << "theta " << theta;
      } else {
        EXPECT_LT(s.label_sum, theta - matching::kTerminationMargin);
        EXPECT_GE(s.label_sum + 1e-9, dense.score);  // a sound bound
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SparseMatcherDifferentialTest,
    ::testing::Values(
        GraphFamily{"wide", 1, 12, 13, 24, 0.25, 150},
        GraphFamily{"tall", 13, 24, 1, 12, 0.25, 150},
        GraphFamily{"square", 1, 16, 1, 16, 0.3, 150},
        GraphFamily{"dense_square", 2, 10, 2, 10, 0.8, 150},
        // The measured exact-matching shape: ~60x150 at 3% density.
        GraphFamily{"em_shape", 55, 65, 140, 160, 0.03, 25},
        GraphFamily{"em_shape_transposed", 140, 160, 55, 65, 0.03, 25}),
    [](const ::testing::TestParamInfo<GraphFamily>& info) {
      return std::string(info.param.name);
    });

// ------------------------------------- token stream equivalence by alpha --

class StreamAlphaTest : public ::testing::TestWithParam<double> {};

TEST_P(StreamAlphaTest, StreamEqualsSortedPairEnumeration) {
  const double alpha = GetParam();
  auto w = testing::MakeRandomWorkload(30, 250, 5, 15, 2024);
  const auto qs = w.corpus.sets.Tokens(0);
  std::vector<TokenId> q(qs.begin(), qs.end());
  sim::TokenStream stream(q, *w.index, alpha, [&](TokenId t) {
    return std::binary_search(w.corpus.vocabulary.begin(),
                              w.corpus.vocabulary.end(), t);
  });
  std::vector<double> stream_sims;
  while (auto tuple = stream.Next()) stream_sims.push_back(tuple->sim);

  // Oracle: enumerate all pairs, self-matches at 1.0, sort descending.
  std::vector<double> oracle_sims;
  for (uint32_t qi = 0; qi < q.size(); ++qi) {
    for (TokenId t : w.corpus.vocabulary) {
      const double s = t == q[qi] ? 1.0 : w.sim->Similarity(q[qi], t);
      if (s >= alpha) oracle_sims.push_back(s);
    }
  }
  std::sort(oracle_sims.rbegin(), oracle_sims.rend());
  ASSERT_EQ(stream_sims.size(), oracle_sims.size()) << "alpha " << alpha;
  for (size_t i = 0; i < stream_sims.size(); ++i) {
    EXPECT_NEAR(stream_sims[i], oracle_sims[i], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, StreamAlphaTest,
                         ::testing::Values(0.55, 0.7, 0.85, 0.95));

}  // namespace
}  // namespace koios
