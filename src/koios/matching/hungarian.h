// Maximum-weight bipartite matching via the Hungarian (Kuhn–Munkres)
// algorithm with slack arrays — O(n³) — plus the early-termination filter
// of paper Lemma 8: the algorithm maintains a feasible node labeling l with
// Σ_v l(v) ≥ w(M*) at all times, and label updates only ever decrease the
// sum, so matching can abort as soon as the sum drops below the current
// pruning threshold θlb.
//
// The paper's semantic overlap is an *optional* one-to-one matching with
// non-negative weights; padding the weight matrix to a square with zeros
// makes the optimal perfect matching equal the optimal optional matching.
//
// This dense solver is the reference: it backs matching::SemanticOverlap
// (the oracle of the tests and the benchmark) and the brute-force
// baseline. The search pipeline verifies candidates with the sparse
// SparseMatcher (sparse_matcher.h), which reaches the same decisions.
#ifndef KOIOS_MATCHING_HUNGARIAN_H_
#define KOIOS_MATCHING_HUNGARIAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "koios/util/types.h"

namespace koios::matching {

/// Dense rows x cols weight matrix, row-major. Weights must be >= 0.
class WeightMatrix {
 public:
  WeightMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), w_(rows * cols, 0.0) {}

  /// Re-shape to rows x cols, all zeros, reusing the existing allocation
  /// when it is large enough (the post-processing EM loop builds one matrix
  /// per candidate into a per-thread instance).
  void Reset(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    w_.assign(rows * cols, 0.0);
  }

  double& At(size_t r, size_t c) { return w_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return w_[r * cols_ + c]; }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  /// Largest entry (0 for an empty matrix).
  double MaxWeight() const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> w_;
};

/// Early termination must never fire on an exact tie: when SO(C) == θlb
/// the bound converges to θlb and rounding could dip below it. Both solvers
/// therefore abort only once their bound falls this margin *below* the
/// threshold, which keeps ties alive (Lemma 2/8 both use strict
/// inequality) at the cost of not pruning sets within the margin of θlb.
inline constexpr double kTerminationMargin = 1e-7;

struct MatchResult {
  /// Sum of matched edge weights (the semantic overlap when the matrix is
  /// the α-clamped similarity matrix of Q x C).
  Score score = 0.0;
  /// True if matching was aborted by the early-termination filter; `score`
  /// is then meaningless (the set's SO is certified < prune_threshold).
  bool early_terminated = false;
  /// match_of_row[r] = matched column, or -1 if row r is unmatched or its
  /// matched edge has zero weight (optional matching semantics).
  std::vector<int32_t> match_of_row;
  /// The solver's dual bound on the matching weight: the final Σ l(v)
  /// (dense) or dual objective (sparse), or the bound that fired when
  /// early_terminated.
  double label_sum = 0.0;
};

class HungarianMatcher {
 public:
  /// Computes a maximum-weight optional matching of `weights`.
  ///
  /// If `prune_threshold` >= 0, the run aborts once the dual label sum
  /// certifies that the optimum is below the threshold (Lemma 8); the
  /// result then has early_terminated = true.
  static MatchResult Solve(const WeightMatrix& weights,
                           double prune_threshold = -1.0);
};

}  // namespace koios::matching

#endif  // KOIOS_MATCHING_HUNGARIAN_H_
