// Exact maximum-weight optional matching by successive shortest augmenting
// paths on the nonzero entries of a weight matrix (Jonker & Volgenant,
// Computing 38, 1987). This is the matcher of the search pipeline; the
// dense HungarianMatcher stays as the reference it is tested against.
//
// The smaller side is augmented one node at a time (the matrix is read
// transposed when it has more rows than columns). Each node also owns a
// private zero-weight "unmatched" option, so no padding to a square is
// needed: a node's augmentation is one Dijkstra run over the α-edges
// reachable from it through the current matching, on reduced costs kept
// non-negative by row and column potentials. With r = min(rows, cols),
// c = max(rows, cols) and E nonzero entries a solve costs
// O(r·(E + c)·log c), against the dense solver's O(c³).
//
// Early termination (paper Lemma 8). Before node i is augmented, the
// current matching M is optimal for the nodes before i. The optimum is at
// most w(M) + gain(i) + Σ_{l > i} rowmax(l), and the gain of node i equals
// x_i − D, where x_i <= rowmax(i) is its starting potential and D the
// length of its shortest augmenting path. Dijkstra settles nodes in
// non-decreasing distance d <= D, so
//
//   bound = w(M) + x_i − d + Σ_{l > i} rowmax(l)
//
// bounds the optimum at every settle. The run aborts as soon as the bound
// falls below prune_threshold − kTerminationMargin, and checks the final
// score a last time, so in exact arithmetic it aborts iff the optimum is
// below prune_threshold − kTerminationMargin: the same decision as the
// dense solver.
#ifndef KOIOS_MATCHING_SPARSE_MATCHER_H_
#define KOIOS_MATCHING_SPARSE_MATCHER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "koios/matching/hungarian.h"

namespace koios::matching {

/// Holds the solve arrays, sized lazily and reused across calls, so one
/// matcher per thread allocates nothing once warm. Not thread-safe.
class SparseMatcher {
 public:
  /// Computes a maximum-weight optional matching of `weights` (entries
  /// >= 0; zero entries are not edges). If `prune_threshold` >= 0, the run
  /// aborts once the bound above certifies that the optimum is below the
  /// threshold; the result then has early_terminated = true, score 0 and
  /// label_sum = the bound that fired. Otherwise `score` sums the matched
  /// weights in ascending row order, as HungarianMatcher does, and
  /// `label_sum` is the final dual objective.
  MatchResult Solve(const WeightMatrix& weights, double prune_threshold = -1.0);

  /// Number of Solve calls made on this matcher (0 = fresh).
  size_t solve_count() const { return solve_count_; }

 private:
  struct Edge {
    uint32_t right;
    double w;
  };
  struct HeapEntry {
    double dist;
    uint32_t right;
  };

  /// Reads the nonzero entries of `weights` into edges_, one run per node
  /// of the smaller side; fills row_max_ and rest_max_.
  void LoadEdges(const WeightMatrix& weights, bool transposed);

  // Graph: CSR over the smaller ("left") side.
  std::vector<uint32_t> first_;   // left -> first edge; size left + 1
  std::vector<Edge> edges_;
  std::vector<double> row_max_;   // left -> largest edge weight
  std::vector<double> rest_max_;  // left i -> Σ row_max_ over l > i
  // Duals: x (left) and y (right) >= 0 with x_l + y_r >= w(l, r), tight on
  // matched edges; the unmatched option of l has reduced cost x_l.
  std::vector<double> x_, y_;
  std::vector<int32_t> mate_left_;   // right node, kUnmatched or -1
  std::vector<int32_t> mate_right_;  // left node or -1
  // One Dijkstra run.
  std::vector<double> dist_;         // right -> tentative distance
  std::vector<uint32_t> pred_;       // right -> left node that reached it
  std::vector<char> settled_;
  std::vector<uint32_t> touched_;    // right nodes labelled this run
  std::vector<HeapEntry> heap_;
  std::vector<uint32_t> tree_;       // left nodes reached this run
  std::vector<double> tree_dist_;
  size_t solve_count_ = 0;
};

}  // namespace koios::matching

#endif  // KOIOS_MATCHING_SPARSE_MATCHER_H_
